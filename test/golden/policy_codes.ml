(* Prints every registered policy's access-code sequence on one fixed
   seeded trace, at capacities 1, 7 and 64: "h" for a hit, "m" for a
   miss into a free slot, otherwise the evicted page.  The output is
   diffed against policy_codes.expected.txt, which pins each policy's
   exact hit/miss/victim sequence. *)

open Atp_util
open Atp_paging

(* Four phases that stress different policies: a skewed hot set, a
   loop slightly larger than the middle capacity, a scan of fresh
   pages, and uniform noise over a wider range. *)
let trace =
  let rng = Prng.create ~seed:20210706 () in
  Array.init 1200 (fun i ->
      match i / 150 mod 4 with
      | 0 ->
        let r = Prng.int rng 96 in
        r * r / 96
      | 1 -> i mod 9
      | 2 -> 1_000 + i
      | _ -> Prng.int rng 160)

let code_to_string c =
  if c = Policy.fast_hit then "h"
  else if c = Policy.fast_miss_free then "m"
  else string_of_int c

let () =
  List.iter
    (fun (module P : Policy.S) ->
      List.iter
        (fun capacity ->
          let inst =
            Policy.instantiate
              (module P)
              ~rng:(Prng.create ~seed:5 ()) ~capacity ()
          in
          Printf.printf "%s capacity=%d:" P.name capacity;
          Array.iteri
            (fun i page ->
              if i mod 30 = 0 then print_string "\n ";
              print_char ' ';
              print_string (code_to_string (inst.Policy.access_fast page)))
            trace;
          print_newline ())
        [ 1; 7; 64 ])
    Registry.all

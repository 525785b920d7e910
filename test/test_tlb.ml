open Atp_tlb
open Atp_paging

let check = Alcotest.check

(* --- Fully associative TLB ------------------------------------------ *)

let test_tlb_hit_miss () =
  let t = Tlb.create ~entries:2 () in
  check Alcotest.(option int) "cold miss" None (Tlb.lookup t 1);
  ignore (Tlb.insert t 1 100);
  check Alcotest.(option int) "hit" (Some 100) (Tlb.lookup t 1);
  let s = Tlb.stats t in
  check Alcotest.int "lookups" 2 s.Tlb.lookups;
  check Alcotest.int "hits" 1 s.Tlb.hits;
  check Alcotest.int "misses" 1 s.Tlb.misses

let test_tlb_eviction_order () =
  let t = Tlb.create ~entries:2 () in
  ignore (Tlb.insert t 1 10);
  ignore (Tlb.insert t 2 20);
  ignore (Tlb.lookup t 1);
  (* LRU victim is 2. *)
  (match Tlb.insert t 3 30 with
   | Some (victim, payload) ->
     check Alcotest.int "victim key" 2 victim;
     check Alcotest.int "victim payload" 20 payload
   | None -> Alcotest.fail "expected eviction");
  check Alcotest.bool "1 survives" true (Tlb.mem t 1);
  check Alcotest.bool "2 gone" false (Tlb.mem t 2)

let test_tlb_insert_existing_refreshes () =
  let t = Tlb.create ~entries:2 () in
  ignore (Tlb.insert t 1 10);
  ignore (Tlb.insert t 2 20);
  (* Re-inserting 1 must not evict anyone and must refresh recency. *)
  check Alcotest.bool "no eviction" true (Tlb.insert t 1 11 = None);
  (match Tlb.insert t 3 30 with
   | Some (victim, _) -> check Alcotest.int "victim is 2" 2 victim
   | None -> Alcotest.fail "expected eviction");
  check Alcotest.(option int) "payload refreshed" (Some 11) (Tlb.peek t 1)

let test_tlb_update_silent () =
  let t = Tlb.create ~entries:2 () in
  ignore (Tlb.insert t 1 10);
  let before = Tlb.stats t in
  check Alcotest.bool "update present" true (Tlb.update t 1 99);
  check Alcotest.bool "update absent" false (Tlb.update t 7 0);
  let after = Tlb.stats t in
  check Alcotest.int "no stat change" before.Tlb.lookups after.Tlb.lookups;
  check Alcotest.(option int) "new payload" (Some 99) (Tlb.peek t 1)

let test_tlb_invalidate_and_flush () =
  let t = Tlb.create ~entries:4 () in
  ignore (Tlb.insert t 1 10);
  ignore (Tlb.insert t 2 20);
  check Alcotest.bool "invalidate" true (Tlb.invalidate t 1);
  check Alcotest.bool "gone" false (Tlb.mem t 1);
  check Alcotest.bool "invalidate absent" false (Tlb.invalidate t 1);
  Tlb.flush t;
  check Alcotest.int "flushed" 0 (Tlb.size t);
  (* Room for everyone again. *)
  ignore (Tlb.insert t 5 50);
  check Alcotest.bool "usable after flush" true (Tlb.mem t 5)

let test_tlb_peek_does_not_touch () =
  let t = Tlb.create ~entries:2 () in
  ignore (Tlb.insert t 1 10);
  ignore (Tlb.insert t 2 20);
  ignore (Tlb.peek t 1);
  (* 1 is still the LRU victim because peek didn't refresh it. *)
  match Tlb.insert t 3 30 with
  | Some (victim, _) -> check Alcotest.int "peek is silent" 1 victim
  | None -> Alcotest.fail "expected eviction"

let test_tlb_fifo_policy () =
  let t = Tlb.create ~policy:(module Fifo) ~entries:2 () in
  ignore (Tlb.insert t 1 10);
  ignore (Tlb.insert t 2 20);
  ignore (Tlb.lookup t 1);
  (* FIFO ignores the hit: 1 is still first in, first out. *)
  match Tlb.insert t 3 30 with
  | Some (victim, _) -> check Alcotest.int "fifo victim" 1 victim
  | None -> Alcotest.fail "expected eviction"

(* --- Set-associative TLB -------------------------------------------- *)

let test_set_assoc_geometry () =
  let t = Set_assoc.create ~sets:4 ~ways:2 () in
  check Alcotest.int "capacity" 8 (Set_assoc.capacity t);
  check Alcotest.int "sets" 4 (Set_assoc.sets t);
  check Alcotest.int "ways" 2 (Set_assoc.ways t)

let test_set_assoc_basic () =
  let t = Set_assoc.create ~sets:2 ~ways:2 () in
  check Alcotest.(option int) "cold" None (Set_assoc.lookup t 1);
  ignore (Set_assoc.insert t 1 10);
  check Alcotest.(option int) "hit" (Some 10) (Set_assoc.lookup t 1);
  check Alcotest.bool "invalidate" true (Set_assoc.invalidate t 1);
  check Alcotest.(option int) "gone" None (Set_assoc.lookup t 1)

let test_set_assoc_conflict_eviction () =
  (* Keys hashing to the same set conflict once past the way count,
     even though the TLB is mostly empty — the set-associativity
     penalty the fully associative model hides. *)
  let t = Set_assoc.create ~sets:8 ~ways:1 () in
  (* Find two keys in the same set. *)
  let key2 = ref (-1) in
  ignore (Set_assoc.insert t 0 0);
  (try
     for k = 1 to 1000 do
       ignore (Set_assoc.insert t k k);
       if Set_assoc.lookup t 0 = None then begin
         key2 := k;
         raise Exit
       end
     done
   with Exit -> ());
  check Alcotest.bool "conflict found" true (!key2 > 0)

let test_set_assoc_lru_within_set () =
  let t = Set_assoc.create ~sets:1 ~ways:2 () in
  ignore (Set_assoc.insert t 1 10);
  ignore (Set_assoc.insert t 2 20);
  ignore (Set_assoc.lookup t 1);
  match Set_assoc.insert t 3 30 with
  | Some (victim, _) -> check Alcotest.int "lru within set" 2 victim
  | None -> Alcotest.fail "expected eviction"

let test_set_assoc_size () =
  let t = Set_assoc.create ~sets:4 ~ways:2 () in
  for k = 0 to 19 do ignore (Set_assoc.insert t k k) done;
  check Alcotest.bool "size bounded" true (Set_assoc.size t <= 8)

(* --- Split TLB ------------------------------------------------------ *)

let test_split_levels () =
  let t =
    Split.create
      ~levels:[ { Split.shift = 0; entries = 4 }; { Split.shift = 9; entries = 2 } ]
      ()
  in
  check Alcotest.int "two levels" 2 (List.length (Split.levels t));
  (* Install a 2MiB-style translation covering pages 512..1023. *)
  ignore (Split.insert t ~shift:9 512 777);
  (match Split.lookup t 800 with
   | Some (payload, shift) ->
     check Alcotest.int "huge hit payload" 777 payload;
     check Alcotest.int "hit at huge level" 9 shift
   | None -> Alcotest.fail "expected huge-page hit");
  (* A base-page translation elsewhere. *)
  ignore (Split.insert t ~shift:0 3 33);
  (match Split.lookup t 3 with
   | Some (payload, shift) ->
     check Alcotest.int "base payload" 33 payload;
     check Alcotest.int "base level" 0 shift
   | None -> Alcotest.fail "expected base hit")

let test_split_larger_page_wins () =
  let t =
    Split.create
      ~levels:[ { Split.shift = 0; entries = 4 }; { Split.shift = 9; entries = 2 } ]
      ()
  in
  ignore (Split.insert t ~shift:0 600 1);
  ignore (Split.insert t ~shift:9 512 2);
  match Split.lookup t 600 with
  | Some (payload, shift) ->
    check Alcotest.int "huge page preferred" 2 payload;
    check Alcotest.int "shift" 9 shift
  | None -> Alcotest.fail "expected hit"

let test_split_invalidate () =
  let t =
    Split.create
      ~levels:[ { Split.shift = 0; entries = 4 }; { Split.shift = 9; entries = 2 } ]
      ()
  in
  ignore (Split.insert t ~shift:9 512 2);
  Split.invalidate_page t 700;
  check Alcotest.bool "huge entry shot down" true (Split.lookup t 513 = None)

let test_split_rejects_bad_shift () =
  let t = Split.create ~levels:[ { Split.shift = 0; entries = 4 } ] () in
  Alcotest.check_raises "unknown shift"
    (Invalid_argument "Split.insert: unknown shift") (fun () ->
      ignore (Split.insert t ~shift:3 0 0))

let test_split_duplicate_shifts_rejected () =
  Alcotest.check_raises "duplicate shifts"
    (Invalid_argument "Split.create: duplicate shifts") (fun () ->
      ignore
        (Split.create
           ~levels:
             [ { Split.shift = 0; entries = 4 }; { Split.shift = 0; entries = 2 } ]
           ()
          : int Split.t))

(* --- batched TLB hierarchy probe = scalar lookups ------------------- *)

let hierarchy_stats h =
  ( Atp_tlb.Hierarchy.lookups h,
    Atp_tlb.Hierarchy.total_cycles h,
    Atp_tlb.Hierarchy.l1_stats h,
    Atp_tlb.Hierarchy.l2_stats h,
    Atp_tlb.Hierarchy.tcache_stats h )

let prop_lookup_batch_equals_scalar =
  QCheck.Test.make ~count:60 ~name:"lookup_batch agrees with scalar lookup"
    QCheck.(
      triple (int_range 1 40)
        (list_of_size Gen.(int_range 1 400) (int_bound 200))
        (* Victim store off, or small enough to churn. *)
        (oneofl [ 0; 3; 8 ]))
    (fun (universe, keys, tcache_entries) ->
      let keys = List.map (fun k -> k mod universe) keys in
      let config =
        { Atp_tlb.Hierarchy.l1_entries = 4;
          l2_entries = 16;
          l1_latency = 1;
          l2_latency = 7;
          tcache_entries;
          tcache_latency = 30;
        }
      in
      (* Scalar reference: lookup, walk + insert on miss. *)
      let hs = Atp_tlb.Hierarchy.create ~config () in
      let scalar_misses = ref 0 in
      List.iter
        (fun key ->
          match Atp_tlb.Hierarchy.lookup hs key with
          | Some _, _ -> ()
          | None, _ ->
            incr scalar_misses;
            Atp_tlb.Hierarchy.insert hs key (key * 3))
        keys;
      (* Batched path over the same keys in one chunk. *)
      let hb = Atp_tlb.Hierarchy.create ~config () in
      let chunk =
        Bigarray.Array1.create Bigarray.int Bigarray.c_layout
          (List.length keys)
      in
      List.iteri (fun i k -> Bigarray.Array1.set chunk i k) keys;
      (* Feed block by block so refills interleave as in the scalar
         run; batch misses must walk-and-insert just like the scalar
         loop for the states to stay identical. *)
      let batch_misses = ref 0 in
      let n = Bigarray.Array1.dim chunk in
      let block = 7 in
      let rec go pos =
        if pos < n then begin
          let len = min block (n - pos) in
          let r =
            Atp_tlb.Hierarchy.lookup_batch hb
              ~on_miss:(fun key ->
                incr batch_misses;
                Atp_tlb.Hierarchy.insert hb key (key * 3))
              chunk pos len
          in
          ignore (r : Atp_tlb.Hierarchy.batch_result);
          go (pos + len)
        end
      in
      go 0;
      !scalar_misses = !batch_misses && hierarchy_stats hs = hierarchy_stats hb)

let () =
  Alcotest.run "atp.tlb"
    [
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "eviction order" `Quick test_tlb_eviction_order;
          Alcotest.test_case "reinsert refreshes" `Quick test_tlb_insert_existing_refreshes;
          Alcotest.test_case "update silent" `Quick test_tlb_update_silent;
          Alcotest.test_case "invalidate/flush" `Quick test_tlb_invalidate_and_flush;
          Alcotest.test_case "peek silent" `Quick test_tlb_peek_does_not_touch;
          Alcotest.test_case "fifo policy" `Quick test_tlb_fifo_policy;
        ] );
      ( "set_assoc",
        [
          Alcotest.test_case "geometry" `Quick test_set_assoc_geometry;
          Alcotest.test_case "basic" `Quick test_set_assoc_basic;
          Alcotest.test_case "conflict" `Quick test_set_assoc_conflict_eviction;
          Alcotest.test_case "lru within set" `Quick test_set_assoc_lru_within_set;
          Alcotest.test_case "size bounded" `Quick test_set_assoc_size;
        ] );
      ( "split",
        [
          Alcotest.test_case "levels" `Quick test_split_levels;
          Alcotest.test_case "larger page wins" `Quick test_split_larger_page_wins;
          Alcotest.test_case "invalidate" `Quick test_split_invalidate;
          Alcotest.test_case "bad shift" `Quick test_split_rejects_bad_shift;
          Alcotest.test_case "duplicate shifts" `Quick test_split_duplicate_shifts_rejected;
        ] );
      ( "tlb-batch",
        [ QCheck_alcotest.to_alcotest prop_lookup_batch_equals_scalar ] );
    ]

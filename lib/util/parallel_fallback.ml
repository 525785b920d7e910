(* Sequential stand-in for OCaml < 5, where the Domain module does not
   exist.  Selected by a dune rule on the compiler version; same
   interface, same validation, results in the same order. *)

let recommended_domains () = 1

let check_domains ?(fn = "Parallel.map") = function
  | Some d when d < 1 -> invalid_arg (fn ^ ": need at least one domain")
  | _ -> ()

let map_array ?domains f input =
  check_domains domains;
  Array.map f input

let map ?domains f xs = Array.to_list (map_array ?domains f (Array.of_list xs))

let map_results_array ?domains f input =
  check_domains domains;
  Array.map
    (fun x ->
      match f x with
      | result -> Ok result
      | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    input

let map_results ?domains f xs =
  Array.to_list (map_results_array ?domains f (Array.of_list xs))

let pipeline ?domains ~make ~produce ~consume () =
  check_domains ~fn:"Parallel.pipeline" domains;
  let b = make () in
  let rec loop () =
    let more = produce b in
    consume b;
    if more then loop ()
  in
  loop ()

(* [truncate SRC DST N] copies SRC to DST without its last N bytes: a
   trace cut off mid-chunk, for the exit-code goldens. *)

let () =
  match Sys.argv with
  | [| _; src; dst; n |] ->
    let ic = open_in_bin src in
    let whole = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let oc = open_out_bin dst in
    output_string oc (String.sub whole 0 (String.length whole - int_of_string n));
    close_out oc
  | _ ->
    prerr_endline "usage: truncate SRC DST N";
    exit 2

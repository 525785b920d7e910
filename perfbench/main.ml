(* The benchmark program.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Generates the workload's inputs from the seed, computes the exact
   reference, then either replays end to end for S seconds (--trace 0)
   or runs the traced per-layer replays (--trace 1).  Every metric is
   printed by name with its unit; the last line of standard output is
   one JSON object with the keys correct, attempted, failed and
   metrics.  Inputs, spans and results go under .perfbench/ in the
   working directory. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload zipf-miss|bimodal-hit|stream-2shard|fleet-churn \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := List.assoc_opt v Spec.kinds;
      if !workload = None then usage ();
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t when sec > 0. -> (w, s, sec, t)
  | _ -> usage ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Peak resident memory of this process, in MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> nan
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

let meta ~name ~seed ~trace =
  [
    ("workload", Printf.sprintf "%S" name);
    ("seed", string_of_int seed);
    ("trace", string_of_bool trace);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml_version", Printf.sprintf "%S" Sys.ocaml_version);
    ("flambda", string_of_bool Build_info.flambda);
    ("word_size", string_of_int Sys.word_size);
  ]

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (m : Layers.metric) ->
         let v = if Float.is_finite m.Layers.value then m.Layers.value else 0. in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.Layers.name v
           m.Layers.unit_)
       metrics)

exception Set_up

(* One sample.  Set-up time runs from the sample's start until its
   first simulator is built, when the first reference can be served:
   for the sequential replay that is the end of set-up, while the
   engine and the fleet build their simulators inside the replay call.
   With [abort], building the first simulator ends the sample. *)
let sample (w : Spec.t) ~dir ~abort =
  let built = Atomic.make false and served = ref nan in
  let make_sim ~obs sim params =
    let z = Spec.make_sim ?obs sim params in
    if Atomic.compare_and_set built false true then served := Spans.now ();
    if abort then raise Set_up;
    z
  in
  let t0 = Spans.now () in
  let replay =
    try
      let r = E2e.setup ~make_sim w ~dir in
      let t1 = Spans.now () in
      let out, _ = r () in
      Some (E2e.refs w out, Spans.now () -. t1, out)
    with Set_up -> None
  in
  (!served -. t0, replay)

(* The untraced run: replays until [seconds] have passed.  After each
   replay come up to [setups_per_replay] set-ups alone, within
   [setup_budget_s], so that set-up time is a median of many samples
   spread over the whole run; at least [min_setups] in all. *)
let setups_per_replay = 5

let setup_budget_s = 0.25

let min_setups = 5

let end_to_end (w : Spec.t) ~dir ~expected ~seconds =
  let reference = E2e.cost expected in
  let host = Host.create () in
  let last = ref (Host.probe host) in
  (* The host's slowdown over the interval that holds a replay: the
     mean probe time on either side, against the reference.  The probe
     runs on one of the d domains a replay uses, so it carries about
     1/d of the replay's dependence on the host; the slowdown is taken
     to the power 1/d. *)
  let exponent = 1. /. float_of_int (Spec.domains w.Spec.kind) in
  let slowdown () =
    let after = Host.probe host in
    let p = (!last +. after) /. 2. in
    last := after;
    Float.pow (p /. Host.reference_s) exponent
  in
  let setups = ref [] and rates = ref [] and errs = ref [] in
  let slowdowns = ref [] in
  (* Set-ups alone are too short to hold between probes; they take the
     slowdown [k] of the replay before them. *)
  let set_up_alone k ~n ~budget =
    let spent = ref 0. and i = ref 0 in
    while !i < n && !spent < budget do
      Gc.full_major ();
      let dt, _ = sample w ~dir ~abort:true in
      spent := !spent +. dt;
      incr i;
      setups := (dt /. k) :: !setups
    done
  in
  let attempted = ref 0 and failed = ref 0 in
  let start = Spans.now () in
  while !attempted < 1 || Spans.now () -. start < seconds do
    incr attempted;
    (try
       match sample w ~dir ~abort:false with
       | setup_s, Some (refs, replay_s, out) -> (
         let k = slowdown () in
         match E2e.failures ~expected out with
         | [] ->
           let raw = float_of_int refs /. replay_s in
           Printf.printf
             "sample setup_s=%.6f replay_s=%.3f refs_per_s=%.0f slowdown=%.3f \
              scaled: setup_s=%.6f refs_per_s=%.0f\n%!"
             setup_s replay_s raw k (setup_s /. k) (raw *. k);
           slowdowns := k :: !slowdowns;
           setups := (setup_s /. k) :: !setups;
           rates := (raw *. k) :: !rates;
           errs := Check.rel_err ~reference (E2e.cost out) :: !errs;
           set_up_alone k ~n:setups_per_replay ~budget:setup_budget_s
         | fs ->
           incr failed;
           List.iter (Printf.printf "check failed: %s\n") fs)
       | _, None -> ()
     with e ->
       incr failed;
       Printf.printf "replay raised: %s\n" (Printexc.to_string e));
    Gc.full_major ()
  done;
  let k = Layers.median !slowdowns in
  set_up_alone k ~n:(min_setups - List.length !setups) ~budget:infinity;
  Printf.printf "replays: %d attempted, %d failed; %d set-ups\n" !attempted
    !failed (List.length !setups);
  Printf.printf "host slowdown: %.4g (median over the replays)\n" k;
  let err = Layers.median !errs in
  Printf.printf "metric cost_rel_err = %.6g ratio\n" err;
  Printf.printf "metric error_rate = %.6g ratio\n"
    (float_of_int !failed /. float_of_int !attempted);
  ( [
      { Layers.name = "refs_per_s"; value = Layers.median !rates; unit_ = "refs/s" };
      { name = "setup_s"; value = Layers.median !setups; unit_ = "s" };
      { name = "peak_rss_mb"; value = peak_rss_mb (); unit_ = "MiB" };
      { name = "cost_accuracy"; value = 1. -. err; unit_ = "ratio" };
    ],
    !attempted,
    !failed )

let () =
  let kind, seed, seconds, trace = parse Sys.argv in
  let name = Spec.name kind in
  let w = Spec.create kind ~seed in
  let out = ".perfbench" in
  let dir = Filename.concat out (Printf.sprintf "%s-%d" name seed) in
  mkdir_p dir;
  let meta = meta ~name ~seed ~trace in
  Printf.printf "meta %s\n%!"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) meta));
  let t0 = Spans.now () in
  (* fleet-churn's end-to-end input is the lifecycle stream itself;
     its σ only feeds the traced layer replays. *)
  if trace || kind <> Spec.Fleet_churn then Spec.write_inputs w ~dir;
  let t1 = Spans.now () in
  let expected = E2e.expected w ~dir in
  let t2 = Spans.now () in
  Printf.printf "inputs: %.3f s to generate, %.3f s for the exact reference\n%!"
    (t1 -. t0) (t2 -. t1);
  let metrics, attempted, failed =
    if trace then begin
      let (metrics, rounds, attempted, failed), _ =
        Spans.record "traced_run" (fun root ->
            Layers.run w ~dir ~expected ~seconds ~root)
      in
      let path = Filename.concat out (Printf.sprintf "spans-%s-%d.jsonl" name seed) in
      Spans.write path (Spans.all ());
      Printf.printf "traced rounds: %d; spans written to %s\n" rounds path;
      (metrics, attempted, failed)
    end
    else end_to_end w ~dir ~expected ~seconds
  in
  List.iter Sys.remove (List.filter Sys.file_exists (Spec.files w ~dir));
  Sys.rmdir dir;
  List.iter
    (fun (m : Layers.metric) ->
      Printf.printf "metric %s = %.6g %s\n" m.Layers.name m.Layers.value m.Layers.unit_)
    metrics;
  let result =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      (failed = 0) attempted failed (json_metrics metrics)
  in
  Out_channel.with_open_text
    (Filename.concat out
       (Printf.sprintf "result-%s-%d-trace%d.json" name seed (Bool.to_int trace)))
    (fun oc ->
      Printf.fprintf oc "{\"meta\": {%s}, \"result\": %s}\n"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) meta))
        result);
  print_endline result

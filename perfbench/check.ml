(* The output check.  The reference follows Lemma 1 / Theorem 4: Z's
   counts split into independent parts, so they can be computed
   without the simulator under test —
   - tlb_fills = misses of X alone on r(σ),
   - ios = misses of Y alone on σ,
   - decoding_misses = references whose [Alloc.code_of] is negative
     right after Y's step, with [Alloc] driven by Y's miss/evict
     stream.
   The reference is exact: it validates the simulator against the
   sequential model, not the model against hardware. *)

open Atp_paging
open Atp_core
module Engine = Atp_engine.Engine

(* A Lemma 1 replay, stepped one reference at a time so that it can
   run straight off a stream. *)
type lemma1 = {
  step : int -> unit;
  reset : unit -> unit;  (** start counting (end of warm-up) *)
  report : unit -> Simulation.report;
}

let lemma1 (sim : Spec.sim) params =
  let x, y = sim.Spec.policies params in
  let alloc = Alloc.create ~seed:sim.Spec.sim_seed params in
  let h_max = params.Params.h_max in
  let accesses = ref 0
  and ios = ref 0
  and fills = ref 0
  and decoding = ref 0
  and failures_at_reset = ref 0 in
  let step page =
    incr accesses;
    (match x.Policy.access (page / h_max) with
     | Policy.Hit -> ()
     | Policy.Miss _ -> incr fills);
    (match y.Policy.access page with
     | Policy.Hit -> ()
     | Policy.Miss { evicted } ->
       incr ios;
       Option.iter (Alloc.delete alloc) evicted;
       ignore (Alloc.insert_code alloc page : int));
    if Alloc.code_of alloc page < 0 then incr decoding
  in
  let reset () =
    accesses := 0;
    ios := 0;
    fills := 0;
    decoding := 0;
    failures_at_reset := Alloc.failures_total alloc
  in
  let report () =
    {
      Simulation.accesses = !accesses;
      ios = !ios;
      tlb_fills = !fills;
      decoding_misses = !decoding;
      failures_total = Alloc.failures_total alloc - !failures_at_reset;
      max_bucket_load = Alloc.max_bucket_load alloc;
    }
  in
  { step; reset; report }

(* The reference report of a workload's σ, read from its files:
   counting starts after the warm-up prefix, as in [Simulation.run]. *)
let reference (w : Spec.t) ~dir =
  let r = lemma1 w.Spec.sim (Spec.derive w.Spec.sim) in
  let files = Spec.files w ~dir in
  let warmup_files, trace_files =
    if w.Spec.warmup > 0 then ([ List.hd files ], List.tl files) else ([], files)
  in
  List.iter (Atp_workloads.Trace.Stream.iter r.step) warmup_files;
  r.reset ();
  List.iter (Atp_workloads.Trace.Stream.iter r.step) trace_files;
  r.report ()

(* Every field of [got] that differs from [expected], by name. *)
let diff_report ~(expected : Simulation.report) (got : Simulation.report) =
  let field name e g =
    if e = g then None else Some (Printf.sprintf "%s=%d (expected %d)" name g e)
  in
  List.filter_map Fun.id
    [
      field "accesses" expected.accesses got.accesses;
      field "ios" expected.ios got.ios;
      field "tlb_fills" expected.tlb_fills got.tlb_fills;
      field "decoding_misses" expected.decoding_misses got.decoding_misses;
      field "failures_total" expected.failures_total got.failures_total;
      field "max_bucket_load" expected.max_bucket_load got.max_bucket_load;
    ]

let cost r = Simulation.cost ~epsilon:Spec.epsilon r

(* |C(Z) - C_ref| / C_ref. *)
let rel_err ~reference c = Float.abs (c -. reference) /. reference

(* The sharded engine is exact only when warm-up covers every epoch's
   prefix; otherwise it may be off by up to its documented bound. *)
let engine_failures ~(expected : Simulation.report) (totals : Engine.totals) =
  let err =
    rel_err ~reference:(cost expected) (Engine.cost ~epsilon:Spec.epsilon totals)
  in
  List.filter_map Fun.id
    [
      (if totals.Engine.accesses = expected.accesses then None
       else
         Some
           (Printf.sprintf "accesses=%d (expected %d)" totals.Engine.accesses
              expected.accesses));
      (if err <= Engine.documented_error_bound then None
       else
         Some
           (Printf.sprintf "cost error %.4f above the documented bound %.2f" err
              Engine.documented_error_bound));
    ]

(* One pass, one domain, one simulator per tenant: what
   [Engine.replay_tenants] computes at a single shard.  A tenant is
   created at first sight and reported at its departure, or at the end
   of the stream in id order; reports come back sorted by tenant. *)
let tenants_sequential ~make_sim (source : Engine.tenant_source) =
  let live = Hashtbl.create 256 in
  let out = ref [] in
  let get tenant =
    match Hashtbl.find_opt live tenant with
    | Some s -> s
    | None ->
      let s = make_sim tenant in
      Hashtbl.replace live tenant s;
      s
  in
  let rec loop () =
    match source () with
    | None -> ()
    | Some (Engine.Tarrive { tenant }) ->
      ignore (get tenant : Simulation.t);
      loop ()
    | Some (Engine.Taccess { tenant; page }) ->
      Simulation.access (get tenant) page;
      loop ()
    | Some (Engine.Tdepart { tenant }) ->
      (match Hashtbl.find_opt live tenant with
       | None -> ()
       | Some s ->
         Hashtbl.remove live tenant;
         out := (tenant, Simulation.report s) :: !out);
      loop ()
  in
  loop ();
  let rest =
    Hashtbl.fold (fun t s acc -> (t, s) :: acc) live []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter (fun (t, s) -> out := (t, Simulation.report s) :: !out) rest;
  List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev !out)

let diff_tenants ~expected got =
  if List.length got <> List.length expected then
    [
      Printf.sprintf "%d tenant reports (expected %d)" (List.length got)
        (List.length expected);
    ]
  else
    List.concat
      (List.map2
         (fun (te, e) (tg, g) ->
           if te <> tg then [ Printf.sprintf "tenant %d (expected %d)" tg te ]
           else
             List.map
               (Printf.sprintf "tenant %d: %s" tg)
               (diff_report ~expected:e g))
         expected got)

let fleet_cost reports =
  List.fold_left (fun acc (_, r) -> acc +. cost r) 0. reports

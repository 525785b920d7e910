(* The traced run: every layer timed from outside, one span per call
   into the layer's public functions.

   The paging and core layers are cut along Lemma 1.  X's outcomes on
   r(σ) and Y's outcomes on σ are recorded once, untimed; each layer
   is then replayed alone on exactly the events it sees inside the
   full loop:
   - paging.x: X on r(σ);  paging.y: Y on σ;
   - core.alloc: [Alloc.insert_code]/[delete] on Y's miss/evict log;
   - ram: [Decoupled.ram_insert]/[ram_evict] on the same log, which
     call [Alloc] inside; ψ bookkeeping is ram minus core.alloc;
   - tlb_ram: ram plus [Decoupled.tlb_add]/[tlb_remove] on X's
     fill/evict log; the TLB side is tlb_ram minus ram;
   - decoupled: tlb_ram plus [Decoupled.translate] per reference;
   - core.full: [Simulation.access] over σ with a null scope;
   - glue: core.full minus X, Y and decoupled — the work of the full
     loop that no layer above accounts for.
   So the per-layer rows add up to core.full by construction, and
   glue names what is left.  Every replay first runs σ's warm-up
   prefix untimed; only the measured part is timed and counted. *)

open Atp_paging
open Atp_core
open Atp_workloads
module Obs = Atp_obs
module Engine = Atp_engine.Engine
module Lifecycle = Atp_fleet.Lifecycle

type metric = { name : string; value : float; unit_ : string }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Outcome codes: a hit, a fill into a free slot, or the evicted page
   itself (pages are non-negative). *)
let hit = -1

let free = -2

let code = function
  | Policy.Hit -> hit
  | Policy.Miss { evicted = None } -> free
  | Policy.Miss { evicted = Some v } -> v

(* Event kinds of the Decoupled replays. *)
let tlb_remove = 0

let tlb_add = 1

let ram_evict = 2

let ram_insert = 3

let translate_ev = 4

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Samples per named layer, collected over rounds. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 32

let sample name v =
  Hashtbl.replace samples name
    (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])

let med name = median (Option.value (Hashtbl.find_opt samples name) ~default:[])

(* Run [f] inside a span named [name] and keep its duration. *)
let timed ?parent name f =
  let r, s = Spans.record ?parent name f in
  sample name (Spans.duration s);
  (r, s)

let children_duration id =
  List.fold_left
    (fun acc s -> if s.Spans.parent = id then acc +. Spans.duration s else acc)
    0. (Spans.all ())

let run (w : Spec.t) ~dir ~expected ~seconds ~root =
  let sim = w.Spec.sim in
  let params = Spec.derive sim in
  let files = Spec.files w ~dir in
  let sigma = Array.concat (List.map Trace.load files) in
  let len = Array.length sigma and w0 = w.Spec.warmup in
  let n = len - w0 in
  let nf = float_of_int n in
  let h_max = params.Params.h_max in
  let huge = Array.map (fun p -> p / h_max) sigma in
  let xlog, ylog =
    let x, y = sim.Spec.policies params in
    ( Array.map (fun u -> code (x.Policy.access u)) huge,
      Array.map (fun p -> code (y.Policy.access p)) sigma )
  in
  let count log f =
    let c = ref 0 in
    for i = w0 to len - 1 do
      c := !c + f log.(i)
    done;
    !c
  in
  let x_misses = count xlog (fun c -> Bool.to_int (c <> hit)) in
  let y_misses = count ylog (fun c -> Bool.to_int (c <> hit)) in
  (* The Decoupled layers replay event streams in the order
     [Simulation.access] issues the calls, each event packed as
     [arg lsl 3 lor kind].  [events ~x ~y ~translate] selects X's
     fill/evict events, Y's miss/evict events and one translate per
     reference; it returns the stream and where its warm-up part
     ends. *)
  let events ~x ~y ~translate =
    let ops c = if c = hit then 0 else if c = free then 1 else 2 in
    let size i =
      (if x then ops xlog.(i) else 0)
      + (if y then ops ylog.(i) else 0)
      + Bool.to_int translate
    in
    let total = ref 0 and warm = ref 0 in
    for i = 0 to len - 1 do
      if i = w0 then warm := !total;
      total := !total + size i
    done;
    if w0 >= len then warm := !total;
    let ev = Array.make !total 0 and k = ref 0 in
    let push kind arg =
      ev.(!k) <- (arg lsl 3) lor kind;
      incr k
    in
    for i = 0 to len - 1 do
      let c = xlog.(i) in
      if x && c <> hit then begin
        if c >= 0 then push tlb_remove c;
        push tlb_add huge.(i)
      end;
      let c = ylog.(i) in
      if y && c <> hit then begin
        if c >= 0 then push ram_evict c;
        push ram_insert sigma.(i)
      end;
      if translate then push translate_ev sigma.(i)
    done;
    (ev, !warm)
  in
  let y_events = events ~x:false ~y:true ~translate:false in
  let xy_events = events ~x:true ~y:true ~translate:false in
  let all_events = events ~x:true ~y:true ~translate:true in
  let measured (ev, warm) = Array.length ev - warm in
  let ram_ops = measured y_events in
  let tlb_ops = measured xy_events - ram_ops in
  (* The layer replays, each over an index range of its input. *)
  let x_steps (x : Policy.instance) lo hi =
    for i = lo to hi - 1 do
      ignore (x.Policy.access huge.(i) : Policy.outcome)
    done
  in
  let y_steps (y : Policy.instance) lo hi =
    for i = lo to hi - 1 do
      ignore (y.Policy.access sigma.(i) : Policy.outcome)
    done
  in
  let alloc_steps ev a lo hi =
    for i = lo to hi - 1 do
      let e = ev.(i) in
      if e land 7 = ram_evict then Alloc.delete a (e lsr 3)
      else ignore (Alloc.insert_code a (e lsr 3) : int)
    done
  in
  let decoupled_steps ev d lo hi =
    for i = lo to hi - 1 do
      let e = ev.(i) in
      let v = e lsr 3 in
      (* the kinds, in the order they are numbered above *)
      match e land 7 with
      | 0 -> Decoupled.tlb_remove d v
      | 1 -> Decoupled.tlb_add d v
      | 2 -> Decoupled.ram_evict d v
      | 3 -> Decoupled.ram_insert d v
      | _ -> ignore (Decoupled.translate d v : Decoupled.translation)
    done
  in
  let sim_steps z lo hi =
    for i = lo to hi - 1 do
      Simulation.access z sigma.(i)
    done
  in
  (* [layer name state steps ~warm ~total]: fresh state, the warm-up
     prefix untimed, a full collection so that earlier replays' garbage
     does not land in this one, then the measured part inside a span.
     Returns the state and the span. *)
  let layer name state steps ~warm ~total =
    let s = state () in
    steps s 0 warm;
    Gc.full_major ();
    let (), span = timed ~parent:root name (fun _ -> steps s warm total) in
    (s, span)
  in
  let on_sigma name state steps = layer name state steps ~warm:w0 ~total:len in
  let on_events name state steps (ev, warm) =
    layer name state (steps ev) ~warm ~total:(Array.length ev)
  in
  let fresh_x () = fst (sim.Spec.policies params) in
  let fresh_y () = snd (sim.Spec.policies params) in
  let fresh_decoupled () = Decoupled.create ~seed:sim.Spec.sim_seed params in
  let alloc_failures = ref 0 in
  let psi_updates = ref 0 in
  let gc_words = ref 0. and gc_majors = ref 0 in
  let nproc = Domain.recommended_domain_count () in
  let e2e_check = ref [] in
  let round () =
    (* workloads *)
    ignore
      (timed ~parent:root "workloads.load" (fun _ -> List.map Trace.load files)
        : int array list * Spans.span);
    ignore
      (timed ~parent:root "workloads.decode" (fun _ ->
           let src = Spec.source w ~dir in
           let k = ref 0 in
           while src () <> None do
             incr k
           done;
           !k)
        : int * Spans.span);
    (* paging and core, along Lemma 1 *)
    ignore (on_sigma "paging.x" fresh_x x_steps : _ * Spans.span);
    ignore (on_sigma "paging.y" fresh_y y_steps : _ * Spans.span);
    let f0 = ref 0 in
    let a, _ =
      on_events "core.alloc"
        (fun () -> Alloc.create ~seed:sim.Spec.sim_seed params)
        (fun ev a lo hi ->
          if lo = snd y_events then f0 := Alloc.failures_total a;
          alloc_steps ev a lo hi)
        y_events
    in
    alloc_failures := Alloc.failures_total a - !f0;
    List.iter
      (fun (name, events) ->
        ignore
          (on_events name fresh_decoupled decoupled_steps events
            : _ * Spans.span))
      [ ("ram", y_events); ("tlb_ram", xy_events); ("decoupled", all_events) ];
    let _, s = on_sigma "core.full" (fun () -> Spec.make_sim sim params) sim_steps in
    gc_words := s.Spans.minor_words;
    gc_majors := s.Spans.major_collections;
    (* obs: the live registry atsim passes *)
    let reg = Obs.Registry.create () in
    let psi = Obs.Registry.counter reg "sim.psi_updates" in
    let p0 = ref 0 in
    ignore
      (on_sigma "core.full_live_obs"
         (fun () -> Spec.make_sim ~obs:(Obs.Scope.v ~prefix:"sim" reg) sim params)
         (fun z lo hi ->
           if lo = w0 then p0 := Obs.Counter.value psi;
           sim_steps z lo hi)
        : _ * Spans.span);
    psi_updates := Obs.Counter.value psi - !p0;
    for _ = 1 to 10 do
      ignore
        (timed ~parent:root "core.create" (fun _ -> Spec.make_sim sim params)
          : Simulation.t * Spans.span)
    done;
    (* engine: σ streamed through the sharded engine at 2 shards, and
       the same stream as one exact epoch for the speed-up *)
    let cpu0 = cpu_s () in
    let (out, reg), es =
      timed ~parent:root "engine.replay" (fun id ->
          let r =
            E2e.engine
              ~make_sim:(fun ~obs sim params ->
                fst
                  (Spans.record ~parent:id "engine.make_sim" (fun _ ->
                       Spec.make_sim ?obs sim params)))
              w ~dir
          in
          r ())
    in
    let cpu = cpu_s () -. cpu0 in
    sample "engine.make_sim" (children_duration es.Spans.id);
    sample "engine.cpu_busy_ratio"
      (cpu
      /. (Spans.duration es
         *. float_of_int (min Spec.engine_config.Engine.shards nproc)));
    (match out with
     | E2e.Totals t ->
       sample "engine.epochs" (float_of_int t.Engine.epochs);
       sample "engine.work_ratio"
         (float_of_int (t.Engine.accesses + t.Engine.warmup_replayed)
         /. float_of_int t.Engine.accesses)
     | E2e.Report _ | E2e.Tenants _ -> ());
    sample "engine.merge_ns"
      (float_of_int
         (Obs.Counter.value (Obs.Registry.counter reg "engine.merge_ns")));
    ignore
      (timed ~parent:root "engine.sequential" (fun _ ->
           Engine.replay
             ~config:
               {
                 Engine.shards = 1;
                 epoch_len = max 1 len;
                 warmup = 0;
                 domains = Some 1;
               }
             ~make_sim:(fun () -> Spec.make_sim sim params)
             (Spec.source w ~dir))
        : Engine.totals * Spans.span);
    (* fleet: the fleet-churn input from the same seed *)
    let passes = Atomic.make 0 in
    let cpu0 = cpu_s () in
    let (_, reg), fs =
      timed ~parent:root "fleet.replay" (fun id ->
          let r =
            E2e.fleet
              ~make_sim:(fun ~obs sim params ->
                fst
                  (Spans.record ~parent:id "fleet.make_sim" (fun _ ->
                       Spec.make_sim ?obs sim params)))
              ~source:(fun cfg ~spec ->
                Atomic.incr passes;
                Lifecycle.source cfg ~spec)
              w
          in
          r ())
    in
    let cpu = cpu_s () -. cpu0 in
    let tenants =
      Obs.Counter.value (Obs.Registry.counter reg "fleet.tenants")
    in
    sample "fleet.tenants" (float_of_int tenants);
    sample "fleet.source_passes" (float_of_int (Atomic.get passes));
    sample "fleet.make_sim_us"
      (children_duration fs.Spans.id *. 1e6 /. float_of_int (max 1 tenants));
    sample "fleet.cpu_busy_ratio"
      (cpu /. (Spans.duration fs *. float_of_int (min Spec.fleet_shards nproc)));
    let events, ls =
      timed ~parent:root "fleet.lifecycle" (fun _ ->
          let src =
            Lifecycle.source (Spec.fleet_config w.Spec.seed)
              ~spec:(Spec.fleet_spec ())
          in
          let k = ref 0 in
          while src () <> None do
            incr k
          done;
          !k)
    in
    sample "fleet.lifecycle_ns_per_event"
      (Spans.duration ls *. 1e9 /. float_of_int events);
    (* the untraced end-to-end replay, checked, for trace overhead *)
    let r = E2e.setup w ~dir in
    let t0 = Spans.now () in
    let out, _ = r () in
    sample "e2e.untraced" (Spans.now () -. t0);
    sample "check.cost_rel_err"
      (Check.rel_err ~reference:(E2e.cost expected) (E2e.cost out));
    e2e_check := E2e.failures ~expected out :: !e2e_check;
    (* the same call inside a span: the engine and fleet layers above
       already are that call for stream-2shard and fleet-churn *)
    match w.Spec.kind with
    | Spec.Zipf_miss | Spec.Bimodal_hit ->
      let r = E2e.setup w ~dir in
      ignore
        (timed ~parent:root "e2e.traced" (fun _ -> r ())
          : (E2e.output * Obs.Registry.t) * Spans.span)
    | Spec.Stream_2shard -> sample "e2e.traced" (Spans.duration es)
    | Spec.Fleet_churn -> sample "e2e.traced" (Spans.duration fs)
  in
  let start = Spans.now () in
  let rounds = ref 0 in
  while !rounds < 3 || Spans.now () -. start < seconds do
    round ();
    incr rounds;
    Gc.full_major ()
  done;
  let ns name = med name *. 1e9 in
  let per_op t ops = t /. float_of_int (max 1 ops) in
  let t_x = ns "paging.x" and t_y = ns "paging.y" in
  let t_alloc = ns "core.alloc" and t_ram = ns "ram" in
  let t_tlb_ram = ns "tlb_ram" and t_dec = ns "decoupled" in
  let t_full = ns "core.full" in
  let glue = (t_full -. t_x -. t_y -. t_dec) /. nf in
  Printf.printf
    "layers, ns/ref: x %.1f + y %.1f + alloc %.1f + psi %.1f + tlb %.1f + \
     translate %.1f + glue %.1f = full %.1f\n"
    (t_x /. nf) (t_y /. nf) (t_alloc /. nf) ((t_ram -. t_alloc) /. nf)
    ((t_tlb_ram -. t_ram) /. nf)
    ((t_dec -. t_tlb_ram) /. nf)
    glue (t_full /. nf);
  let failed = List.length (List.filter (fun f -> f <> []) !e2e_check) in
  let metrics =
    [
      ("workloads.load_s", med "workloads.load", "s");
      ("workloads.decode_ns_per_ref", ns "workloads.decode" /. float_of_int len, "ns");
      ("paging.x_ns_per_ref", t_x /. nf, "ns");
      ("paging.x_miss_ratio", float_of_int x_misses /. nf, "ratio");
      ("paging.y_ns_per_ref", t_y /. nf, "ns");
      ("paging.y_miss_ratio", float_of_int y_misses /. nf, "ratio");
      ("core.alloc_ns_per_op", per_op t_alloc ram_ops, "ns");
      ("core.alloc_ops_per_ref", float_of_int ram_ops /. nf, "ops/ref");
      ( "core.alloc_fail_ratio",
        float_of_int !alloc_failures /. float_of_int (max 1 y_misses),
        "ratio" );
      ("core.psi_ns_per_op", per_op (t_ram -. t_alloc) ram_ops, "ns");
      ("core.psi_updates_per_ref", float_of_int !psi_updates /. nf, "count/ref");
      ("core.tlb_ns_per_op", per_op (t_tlb_ram -. t_ram) tlb_ops, "ns");
      ("core.tlb_ops_per_ref", float_of_int tlb_ops /. nf, "ops/ref");
      ("core.translate_ns_per_ref", (t_dec -. t_tlb_ram) /. nf, "ns");
      ("core.full_ns_per_ref", t_full /. nf, "ns");
      ("core.glue_ns_per_ref", glue, "ns");
      ("core.create_us", med "core.create" *. 1e6, "us");
      ("obs.ns_per_ref", (ns "core.full_live_obs" -. t_full) /. nf, "ns");
      ("gc.minor_words_per_ref", !gc_words /. nf, "words/ref");
      ("gc.major_collections", float_of_int !gc_majors, "count");
      ("engine.replay_s", med "engine.replay", "s");
      ("engine.work_ratio", med "engine.work_ratio", "ratio");
      ("engine.epochs", med "engine.epochs", "count");
      ("engine.make_sim_s", med "engine.make_sim", "s");
      ("engine.merge_ns", med "engine.merge_ns", "ns");
      ("engine.cpu_busy_ratio", med "engine.cpu_busy_ratio", "ratio");
      ( "engine.speedup_vs_sequential",
        med "engine.sequential" /. med "engine.replay",
        "x" );
      ("fleet.lifecycle_ns_per_event", med "fleet.lifecycle_ns_per_event", "ns");
      ("fleet.source_passes", med "fleet.source_passes", "count");
      ("fleet.tenants", med "fleet.tenants", "count");
      ("fleet.make_sim_us", med "fleet.make_sim_us", "us");
      ("fleet.cpu_busy_ratio", med "fleet.cpu_busy_ratio", "ratio");
      ("fleet.replay_s", med "fleet.replay", "s");
      ("trace.overhead_ratio", med "e2e.traced" /. med "e2e.untraced", "ratio");
      ("check.cost_rel_err", med "check.cost_rel_err", "ratio");
      ( "check.error_rate",
        float_of_int failed /. float_of_int (List.length !e2e_check),
        "ratio" );
    ]
  in
  ( List.map (fun (name, value, unit_) -> { name; value; unit_ }) metrics,
    !rounds,
    List.length !e2e_check,
    failed )

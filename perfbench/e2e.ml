(* The untraced end-to-end replay: the same public entry points, with
   the same configuration and the same live obs registry, that atsim's
   command handlers use.  Each workload splits into a set-up, which
   returns the replay, so set-up can be timed (and repeated) on its
   own. *)

open Atp_core
open Atp_workloads
module Obs = Atp_obs
module Engine = Atp_engine.Engine
module Lifecycle = Atp_fleet.Lifecycle

(* What one replay produced. *)
type output =
  | Report of Simulation.report  (** [atsim decoupled], sequential *)
  | Totals of Engine.totals  (** the sharded engine *)
  | Tenants of (int * Simulation.report) list  (** the fleet, by tenant *)

type replay = unit -> output * Obs.Registry.t

(* atsim's registry: live, tracing disabled. *)
let registry () = Obs.Registry.create ()

(* How a replay builds each of its simulators; the harness wraps it to
   see when the first one is ready and to time construction. *)
type make_sim = obs:Obs.Scope.t option -> Spec.sim -> Params.t -> Simulation.t

let plain_make_sim ~obs sim params = Spec.make_sim ?obs sim params

(* [atsim decoupled]: load σ, derive, instantiate, create; the replay
   is [Simulation.run ~warmup]. *)
let sequential ~(make_sim : make_sim) (w : Spec.t) ~dir =
  let warmup =
    if w.Spec.warmup > 0 then Trace.load (Spec.warmup_file dir) else [||]
  in
  let trace = Trace.load (Spec.trace_file dir) in
  let params = Spec.derive w.Spec.sim in
  let reg = registry () in
  let z = make_sim ~obs:(Some (Obs.Scope.v ~prefix:"sim" reg)) w.Spec.sim params in
  fun () -> (Report (Simulation.run ~warmup z trace), reg)

(* [atsim decoupled --trace-file σ.atps --stream --shards 2]: the
   engine builds one simulator per epoch inside the replay. *)
let engine ~(make_sim : make_sim) (w : Spec.t) ~dir =
  let source = Spec.source w ~dir in
  let params = Spec.derive w.Spec.sim in
  let reg = registry () in
  fun () ->
    ( Totals
        (Engine.replay
           ~obs:(Obs.Scope.v ~prefix:"engine" reg)
           ~clock:Atp_exp.Runner.wall_clock ~config:Spec.engine_config
           ~make_sim:(fun () -> make_sim ~obs:None w.Spec.sim params)
           source),
      reg )

(* [atsim fleet --qos partitioned]: per-tenant simulators are built
   inside the replay, where users pay for them. *)
let fleet ?(source = Lifecycle.source) ~(make_sim : make_sim) (w : Spec.t) =
  let seed = w.Spec.seed in
  let cfg = Spec.fleet_config seed in
  Lifecycle.validate cfg;
  let spec = Spec.fleet_spec () in
  let reg = registry () in
  let scope = Obs.Scope.v ~prefix:"fleet" reg in
  fun () ->
    let reports =
      Engine.replay_tenants ~obs:scope ~shards:Spec.fleet_shards
        ~make_sim:(fun tenant ->
          let sim = Spec.tenant_sim ~seed tenant in
          make_sim ~obs:None sim (Spec.derive sim))
        (fun () -> source cfg ~spec)
    in
    ( Tenants (List.map (fun r -> (r.Engine.tenant, r.Engine.report)) reports),
      reg )

let setup ?(make_sim = plain_make_sim) (w : Spec.t) ~dir : replay =
  match w.Spec.kind with
  | Spec.Zipf_miss | Spec.Bimodal_hit -> sequential ~make_sim w ~dir
  | Spec.Stream_2shard -> engine ~make_sim w ~dir
  | Spec.Fleet_churn -> fleet ~make_sim w

(* The exact reference each workload's output is checked against,
   computed once per run before any timing. *)
let expected (w : Spec.t) ~dir =
  match w.Spec.kind with
  | Spec.Zipf_miss | Spec.Bimodal_hit | Spec.Stream_2shard ->
    Report (Check.reference w ~dir)
  | Spec.Fleet_churn ->
    let seed = w.Spec.seed in
    Tenants
      (Check.tenants_sequential
         ~make_sim:(fun tenant ->
           let sim = Spec.tenant_sim ~seed tenant in
           Spec.make_sim sim (Spec.derive sim))
         (Lifecycle.source (Spec.fleet_config seed) ~spec:(Spec.fleet_spec ())))

(* The references a replay served, warm-up included: σ's for the
   sequential replay and the engine (not the warm-up windows the engine
   replays again), the tenants' accesses for the fleet. *)
let refs (w : Spec.t) = function
  | Report r -> w.Spec.warmup + r.Simulation.accesses
  | Totals t -> t.Engine.accesses
  | Tenants t ->
    List.fold_left (fun acc (_, r) -> acc + r.Simulation.accesses) 0 t

let cost = function
  | Report r -> Check.cost r
  | Totals t -> Engine.cost ~epsilon:Spec.epsilon t
  | Tenants t -> Check.fleet_cost t

(* Where [got] fails the check against [expected]: exact equality for
   the sequential replay and the fleet, the documented error bound for
   the sharded engine. *)
let failures ~expected got =
  match (expected, got) with
  | Report e, Report g -> Check.diff_report ~expected:e g
  | Report e, Totals t -> Check.engine_failures ~expected:e t
  | Tenants e, Tenants g -> Check.diff_tenants ~expected:e g
  | _ -> [ "output of the wrong shape" ]

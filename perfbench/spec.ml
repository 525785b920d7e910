(* The four workloads: the inputs each one generates from the seed, and
   the simulator configuration each one replays them with.  Every
   configuration is the one the matching atsim command builds, down to
   how policies and schemes are seeded, so the benchmark times what a
   user of atsim runs. *)

open Atp_util
open Atp_paging
open Atp_core
open Atp_workloads
module Engine = Atp_engine.Engine
module Lifecycle = Atp_fleet.Lifecycle

type kind = Zipf_miss | Bimodal_hit | Stream_2shard | Fleet_churn

let kinds =
  [
    ("zipf-miss", Zipf_miss);
    ("bimodal-hit", Bimodal_hit);
    ("stream-2shard", Stream_2shard);
    ("fleet-churn", Fleet_churn);
  ]

let name kind = fst (List.find (fun (_, k) -> k = kind) kinds)

(* atsim's default TLB-miss cost ε. *)
let epsilon = 0.01

(* One simulator configuration.  [policies] builds X (the TLB policy)
   and Y (the RAM policy) exactly as the mirrored command does. *)
type sim = {
  p : int;  (** physical pages handed to [Params.derive] *)
  sim_seed : int;
  policies : Params.t -> Policy.instance * Policy.instance;
}

let lru = Registry.find_exn "lru"

(* [atsim decoupled]'s make_sim. *)
let decoupled_sim ~seed ~ram ~tlb =
  {
    p = ram;
    sim_seed = seed;
    policies =
      (fun params ->
        let rng = Prng.create ~seed:(seed + 1) () in
        let x = Policy.instantiate lru ~rng:(Prng.split rng) ~capacity:tlb () in
        let y =
          Policy.instantiate lru ~rng:(Prng.split rng)
            ~capacity:(Params.usable_pages params) ()
        in
        (x, y));
  }

let derive sim = Params.derive ~p:sim.p ~w:64 ()

let make_sim ?obs sim params =
  let x, y = sim.policies params in
  Simulation.create ~seed:sim.sim_seed ?obs ~params ~x ~y ()

(* fleet-churn: [atsim fleet --qos partitioned --fleet-shards 2 --ram
   2048 --tlb 64 --ticks 8000], about 4k tenants. *)
let fleet_ram = 2048

let fleet_tlb = 64

let fleet_vpages = 4096

let fleet_shards = 2

(* [atsim fleet --qos partitioned]'s make_sim for one tenant; P is
   twice the tenant's RAM so that Y fits under the (1-δ)P budget. *)
let tenant_sim ~seed tenant =
  {
    p = 2 * fleet_ram;
    sim_seed = seed + 7 + tenant;
    policies =
      (fun _ ->
        let x =
          Policy.instantiate lru
            ~rng:(Prng.create ~seed:(seed + 11 + tenant) ())
            ~capacity:fleet_tlb ()
        in
        let y =
          Policy.instantiate lru
            ~rng:(Prng.create ~seed:(seed + 13 + tenant) ())
            ~capacity:fleet_ram ()
        in
        (x, y));
  }

let fleet_config seed = { Lifecycle.default with Lifecycle.seed; ticks = 8000 }

let fleet_spec () =
  Mix.spec ~name:"fleet-mix" ~weights:[| 0.7; 0.3 |]
    [|
      (fun rng -> Simple.zipf ~virtual_pages:fleet_vpages rng);
      (fun rng -> Simple.uniform ~virtual_pages:fleet_vpages rng);
    |]

(* stream-2shard: atsim's engine defaults (one 256 Ki-reference epoch,
   warm-up of one epoch) at 2 shards. *)
let engine_config =
  { Engine.shards = 2; epoch_len = 262_144; warmup = 262_144; domains = None }

(* The domains a workload replays on. *)
let domains = function
  | Zipf_miss | Bimodal_hit -> 1
  | Stream_2shard -> engine_config.Engine.shards
  | Fleet_churn -> fleet_shards

(* A workload's page stream σ: [warmup] references that only fill the
   modelled caches, then [accesses] measured ones.  Every workload has
   one; on fleet-churn it is a single long-lived tenant of the fleet's
   mix, which gives the traced run the fleet's per-tenant footprint. *)
type t = {
  kind : kind;
  seed : int;
  sim : sim;
  warmup : int;
  accesses : int;
  generator : unit -> Workload.t;
}

let paper_vpages = 1 lsl 20

let create kind ~seed =
  let rng () = Prng.create ~seed () in
  match kind with
  | Zipf_miss ->
    {
      kind;
      seed;
      sim = decoupled_sim ~seed ~ram:(1 lsl 18) ~tlb:1536;
      warmup = 1_000_000;
      accesses = 1_000_000;
      generator = (fun () -> Simple.zipf ~virtual_pages:paper_vpages (rng ()));
    }
  | Bimodal_hit ->
    {
      kind;
      seed;
      sim = decoupled_sim ~seed ~ram:(1 lsl 18) ~tlb:1536;
      warmup = 1_000_000;
      accesses = 1_000_000;
      generator =
        (fun () ->
          Bimodal.create ~hot_pages:(paper_vpages / 64)
            ~virtual_pages:paper_vpages (rng ()));
    }
  | Stream_2shard ->
    {
      kind;
      seed;
      sim = decoupled_sim ~seed ~ram:2048 ~tlb:64;
      warmup = 0;
      accesses = 2_097_152;
      generator = (fun () -> Simple.zipf ~virtual_pages:65_536 (rng ()));
    }
  | Fleet_churn ->
    let cfg = fleet_config seed in
    {
      kind;
      seed;
      sim = tenant_sim ~seed 0;
      warmup = 0;
      accesses = cfg.Lifecycle.ticks * cfg.Lifecycle.accesses_per_tick;
      generator = (fun () -> Mix.instantiate (fleet_spec ()) (rng ()));
    }

(* σ lives in up to two ATPS files: the warm-up prefix and the
   measured part, so that a replay can hand them to
   [Simulation.run ~warmup] as atsim does. *)
let warmup_file dir = Filename.concat dir "warmup.atps"

let trace_file dir = Filename.concat dir "trace.atps"

let files t ~dir =
  (if t.warmup > 0 then [ warmup_file dir ] else []) @ [ trace_file dir ]

(* Streamed straight from the generator, so no generated array is ever
   resident. *)
let write_inputs t ~dir =
  let wl = t.generator () in
  let write path n =
    Trace.Stream.with_writer path (fun w ->
        for _ = 1 to n do
          Trace.Stream.push w (wl.Workload.next ())
        done)
  in
  if t.warmup > 0 then write (warmup_file dir) t.warmup;
  write (trace_file dir) t.accesses

(* One pull stream over all of σ's files, in order; for a single file,
   the very source atsim hands the engine. *)
let source t ~dir : Engine.source =
  match List.map Trace.Stream.source (files t ~dir) with
  | [ one ] -> one
  | sources ->
    let rest = ref sources in
    let rec next () =
      match !rest with
      | [] -> None
      | s :: tl -> (
        match s () with
        | Some _ as r -> r
        | None ->
          rest := tl;
          next ())
    in
    next

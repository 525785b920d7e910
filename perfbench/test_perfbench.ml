(* The benchmark's output check must catch a wrong count, and its
   references must agree with the simulator they check. *)

open Atp_core
open Perfbench
module Engine = Atp_engine.Engine
module Lifecycle = Atp_fleet.Lifecycle

let fail fmt = Printf.ksprintf failwith fmt

let small_sim ~seed = Spec.decoupled_sim ~seed ~ram:512 ~tlb:16

let zipf ~seed n =
  let wl =
    Atp_workloads.Simple.zipf ~virtual_pages:4096
      (Atp_util.Prng.create ~seed ())
  in
  Atp_workloads.Workload.generate wl n

(* The Lemma 1 reference reproduces Simulation.run's report exactly,
   warm-up included. *)
let reference_matches_simulation () =
  List.iter
    (fun seed ->
      let sim = small_sim ~seed in
      let params = Spec.derive sim in
      let warmup = zipf ~seed 5_000 and trace = zipf ~seed:(seed + 100) 20_000 in
      let got = Simulation.run ~warmup (Spec.make_sim sim params) trace in
      let r = Check.lemma1 sim params in
      Array.iter r.Check.step warmup;
      r.Check.reset ();
      Array.iter r.Check.step trace;
      match Check.diff_report ~expected:(r.Check.report ()) got with
      | [] -> ()
      | d -> fail "seed %d: %s" seed (String.concat "; " d))
    [ 1; 2; 3 ]

(* A perturbed count is a failed replay, for each checked field. *)
let perturbed_count_flagged () =
  let sim = small_sim ~seed:7 in
  let params = Spec.derive sim in
  let got = Simulation.run (Spec.make_sim sim params) (zipf ~seed:7 10_000) in
  let expected = E2e.Report got in
  if E2e.failures ~expected (E2e.Report got) <> [] then
    fail "an exact report was flagged";
  List.iter
    (fun (field, bad) ->
      match E2e.failures ~expected (E2e.Report bad) with
      | [ msg ] when String.starts_with ~prefix:field msg -> ()
      | d -> fail "perturbed %s: got [%s]" field (String.concat "; " d))
    [
      ("ios", { got with Simulation.ios = got.Simulation.ios + 1 });
      ("tlb_fills", { got with tlb_fills = got.tlb_fills - 1 });
      ("decoding_misses", { got with decoding_misses = got.decoding_misses + 1 });
    ];
  (* the sharded engine: its cost may be off by the documented bound,
     no more *)
  let totals = Engine.add_report Engine.empty_totals got ~warmup_len:0 in
  if E2e.failures ~expected (E2e.Totals totals) <> [] then
    fail "exact engine totals were flagged";
  let off =
    1
    + int_of_float
        (Engine.documented_error_bound *. Check.cost got)
  in
  if
    E2e.failures ~expected
      (E2e.Totals { totals with Engine.ios = totals.Engine.ios + off })
    = []
  then fail "engine totals beyond the documented bound were not flagged";
  (* the fleet: one tenant's count off *)
  let tenants = [ (0, got); (1, got) ] in
  let bad = [ (0, got); (1, { got with ios = got.ios + 1 }) ] in
  if E2e.failures ~expected:(E2e.Tenants tenants) (E2e.Tenants tenants) <> []
  then fail "exact tenant reports were flagged";
  if E2e.failures ~expected:(E2e.Tenants tenants) (E2e.Tenants bad) = [] then
    fail "a perturbed tenant report was not flagged"

(* The fleet reference agrees with the engine's tenant replay. *)
let fleet_reference_matches_engine () =
  let seed = 5 in
  let cfg = { (Spec.fleet_config seed) with Lifecycle.ticks = 300 } in
  let make_sim tenant =
    let sim = Spec.tenant_sim ~seed tenant in
    Spec.make_sim sim (Spec.derive sim)
  in
  let source () = Lifecycle.source cfg ~spec:(Spec.fleet_spec ()) in
  let expected = Check.tenants_sequential ~make_sim (source ()) in
  let got =
    Engine.replay_tenants ~shards:2 ~make_sim source
    |> List.map (fun r -> (r.Engine.tenant, r.Engine.report))
  in
  if List.length expected < 100 then fail "too few tenants to be a test";
  match Check.diff_tenants ~expected got with
  | [] -> ()
  | d -> fail "fleet: %s" (String.concat "; " d)

let () =
  List.iter
    (fun (name, f) ->
      f ();
      Printf.printf "ok %s\n" name)
    [
      ("reference matches Simulation", reference_matches_simulation);
      ("perturbed count flagged", perturbed_count_flagged);
      ("fleet reference matches the engine", fleet_reference_matches_engine);
    ]

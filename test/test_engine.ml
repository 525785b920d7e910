(* The differential harness for the streaming engine: its two-stage
   replay (X and Y on one domain, the decoupling scheme on the other)
   must reproduce exact sequential replay field for field, for every
   policy, shard count and block boundary, and the streamed trace
   format must round-trip byte-for-byte.

   The shard count is taken from ATP_SHARDS (CI runs the suite with
   ATP_SHARDS=4 on the multicore job); on OCaml 4.x the Parallel
   fallback runs the two stages in turn on one domain and every
   assertion here still holds. *)

open Atp_util
open Atp_core
open Atp_paging
open Atp_workloads
module Engine = Atp_engine.Engine
module Obs = Atp_obs

let check = Alcotest.check

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let shards =
  match Option.bind (Sys.getenv_opt "ATP_SHARDS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> 2

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let params = Params.derive ~p:2048 ~w:64 ()

let policies = [ "lru"; "fifo"; "2q" ]

(* Deterministic simulator factory: every Prng is created inside the
   closure from a constant seed, so two calls build identical
   simulators — one for the engine, one for the sequential
   reference. *)
let make_pair_sim ?obs ?(params = params) ?(x_capacity = 64)
    ?(y_capacity = 256) ~xp ~yp () =
  let x =
    Policy.instantiate (Registry.find_exn xp)
      ~rng:(Prng.create ~seed:11 ())
      ~capacity:x_capacity ()
  in
  let y =
    Policy.instantiate (Registry.find_exn yp)
      ~rng:(Prng.create ~seed:13 ())
      ~capacity:y_capacity ()
  in
  Simulation.create ~seed:7 ?obs ~params ~x ~y ()

let make_sim ~policy () = make_pair_sim ~xp:policy ~yp:policy ()

let trace_of ~seed ~n = function
  | "simple" ->
    Workload.generate (Simple.zipf ~virtual_pages:4096 (Prng.create ~seed ())) n
  | "bimodal" ->
    Workload.generate
      (Bimodal.create ~hot_pages:64 ~virtual_pages:4096 (Prng.create ~seed ()))
      n
  | "graph_walk" ->
    Workload.generate
      (Graph_walk.create ~virtual_pages:4096 (Prng.create ~seed ()))
      n
  | w -> invalid_arg w

let workload_names = [ "simple"; "bimodal"; "graph_walk" ]

(* Every field, the engine's bookkeeping included. *)
let totals_testable =
  let pp ppf (t : Engine.totals) = Engine.pp_totals ppf t in
  Alcotest.testable pp ( = )

let sequential ~policy trace =
  Engine.replay_sequential ~make_sim:(make_sim ~policy)
    (Engine.source_of_array trace)

let config ?(shards = shards) ?(epoch_len = Engine.default_config.epoch_len)
    ?(warmup = Engine.default_config.warmup) () =
  { Engine.shards; epoch_len; warmup; domains = None }

let sharded ~policy ~epoch_len ~warmup trace =
  Engine.replay
    ~config:(config ~epoch_len ~warmup ())
    ~make_sim:(make_sim ~policy)
    (Engine.source_of_array trace)

(* ------------------------------------------------------------------ *)
(* Exact equivalence                                                   *)
(* ------------------------------------------------------------------ *)

(* Every registered policy, as X and as Y, at every shard count the
   suite runs, on streams that end before, at and after a block
   boundary: the engine's totals equal sequential replay's, field for
   field. *)
let test_every_policy_exact () =
  let b = Engine.block_len in
  let full = trace_of ~seed:5 ~n:(b + 1) "simple" in
  let pairs =
    List.concat_map
      (fun p -> if String.equal p "lru" then [ (p, p) ] else [ (p, "lru"); ("lru", p) ])
      Registry.names
  in
  List.iter
    (fun (xp, yp) ->
      List.iter
        (fun n ->
          let trace = Array.sub full 0 n in
          let seq =
            Engine.replay_sequential ~make_sim:(make_pair_sim ~xp ~yp)
              (Engine.source_of_array trace)
          in
          List.iter
            (fun shards ->
              check totals_testable
                (Printf.sprintf "X=%s Y=%s n=%d shards=%d" xp yp n shards)
                seq
                (Engine.replay ~config:(config ~shards ())
                   ~make_sim:(make_pair_sim ~xp ~yp)
                   (Engine.source_of_array trace)))
            (List.sort_uniq Int.compare [ 1; 2; shards ]))
        [ 0; 1; b - 1; b; b + 1 ])
    pairs

(* A RAM of 64 pages under a uniform stream forces paging failures,
   so the failure count and the decoding misses they cause must come
   out the same too.  The stream spans five blocks, so both hand-off
   buffers are reused. *)
let test_failures_exact () =
  let params = Params.derive ~p:64 ~w:64 () in
  let trace =
    Workload.generate
      (Simple.uniform ~virtual_pages:8192 (Prng.create ~seed:5 ()))
      ((4 * Engine.block_len) + 123)
  in
  let make_sim () =
    make_pair_sim ~params ~x_capacity:8
      ~y_capacity:(Params.usable_pages params) ~xp:"lru" ~yp:"lru" ()
  in
  let seq =
    Engine.replay_sequential ~make_sim (Engine.source_of_array trace)
  in
  check Alcotest.bool "the stream causes paging failures" true
    (seq.Engine.failures > 0 && seq.Engine.decoding_misses > 0);
  List.iter
    (fun shards ->
      check totals_testable
        (Printf.sprintf "shards=%d" shards)
        seq
        (Engine.replay ~config:(config ~shards ()) ~make_sim
           (Engine.source_of_array trace)))
    (List.sort_uniq Int.compare [ 1; 2; shards ])

(* A simulator with a live obs scope and tracer: replayed through the
   engine, its counters (psi_updates included), gauge and trace-event
   sequence equal those of Simulation.run on the same stream. *)
let test_obs_and_trace_exact () =
  let trace = trace_of ~seed:8 ~n:(Engine.block_len + 3_000) "bimodal" in
  let observed () =
    let reg =
      Obs.Registry.create ~trace:(Obs.Trace.create ~capacity:(1 lsl 17)) ()
    in
    (reg, make_pair_sim ~obs:(Obs.Scope.v ~prefix:"sim" reg) ~xp:"lru" ~yp:"2q" ())
  in
  let run_reg, z = observed () in
  ignore (Simulation.run z trace : Simulation.report);
  let engine_reg, engine_sim = observed () in
  ignore
    (Engine.replay ~config:(config ~shards:2 ())
       ~make_sim:(fun () -> engine_sim)
       (Engine.source_of_array trace)
      : Engine.totals);
  check Alcotest.bool "the stream updates covered ψ values" true
    (Obs.Counter.value (Obs.Registry.counter run_reg "sim.psi_updates") > 0);
  check Alcotest.int "no trace event dropped" 0
    (Obs.Trace.dropped (Obs.Registry.trace run_reg));
  check Alcotest.string "obs snapshot"
    (Obs.Registry.snapshot_string run_reg)
    (Obs.Registry.snapshot_string engine_reg);
  let events reg =
    List.map
      (fun e -> Obs.Json.to_string (Obs.Event.to_json e))
      (Obs.Trace.events (Obs.Registry.trace reg))
  in
  check
    Alcotest.(list string)
    "trace events" (events run_reg) (events engine_reg)

(* Configurations that the old epoch engine replayed exactly — a
   warm-up covering the whole prefix, or two epochs with a one-epoch
   warm-up — stay exact: [epoch_len] and [warmup] are not read. *)
let test_exact_full_warmup () =
  let n = 6_000 in
  List.iter
    (fun wname ->
      let trace = trace_of ~seed:42 ~n wname in
      List.iter
        (fun policy ->
          let seq = sequential ~policy trace in
          let sh = sharded ~policy ~epoch_len:1_500 ~warmup:n trace in
          check totals_testable
            (Printf.sprintf "%s/%s full-warmup sharded = sequential" wname
               policy)
            seq sh;
          check (Alcotest.float 0.)
            (Printf.sprintf "%s/%s cost" wname policy)
            (Engine.cost ~epsilon:0.01 seq)
            (Engine.cost ~epsilon:0.01 sh))
        policies)
    workload_names

let test_exact_single_boundary () =
  let n = 4_000 in
  let epoch_len = 2_000 in
  List.iter
    (fun wname ->
      let trace = trace_of ~seed:9 ~n wname in
      List.iter
        (fun policy ->
          let seq = sequential ~policy trace in
          let sh = sharded ~policy ~epoch_len ~warmup:epoch_len trace in
          check totals_testable
            (Printf.sprintf "%s/%s two-epoch sharded = sequential" wname policy)
            seq sh)
        policies)
    workload_names

(* A ragged tail (n not a multiple of the block length) must not drop
   or duplicate references; the replay is one pass over one
   simulator. *)
let test_exact_ragged_tail () =
  let n = 5_321 in
  let trace = trace_of ~seed:4 ~n "simple" in
  let seq = sequential ~policy:"lru" trace in
  let sh = sharded ~policy:"lru" ~epoch_len:1_700 ~warmup:n trace in
  check totals_testable "ragged tail exact" seq sh;
  check Alcotest.int "every reference measured" n sh.Engine.accesses;
  check Alcotest.int "epoch count" 1 sh.Engine.epochs

(* Configurations the old epoch engine only bounded (eight epochs with
   a one-epoch warm-up) are exact now: the documented bound is 0. *)
let test_bounded_multi_epoch () =
  let n = 12_000 in
  let epoch_len = 1_500 in
  List.iter
    (fun wname ->
      let trace = trace_of ~seed:21 ~n wname in
      List.iter
        (fun policy ->
          let seq = sequential ~policy trace in
          let sh = sharded ~policy ~epoch_len ~warmup:epoch_len trace in
          check totals_testable
            (Printf.sprintf "%s/%s multi-epoch config = sequential" wname
               policy)
            seq sh;
          check (Alcotest.float 0.)
            (Printf.sprintf "%s/%s error bound" wname policy)
            0. Engine.documented_error_bound)
        policies)
    workload_names

(* Shard count must never change the answer, only the schedule. *)
let test_shards_invariant () =
  let n = 8_000 in
  let trace = trace_of ~seed:3 ~n "bimodal" in
  let run shards =
    Engine.replay
      ~config:{ Engine.shards; epoch_len = 1_000; warmup = 1_000; domains = None }
      ~make_sim:(make_sim ~policy:"lru")
      (Engine.source_of_array trace)
  in
  let one = run 1 in
  List.iter
    (fun s ->
      check totals_testable
        (Printf.sprintf "shards=%d = shards=1" s)
        one (run s))
    [ 2; 3; 4; 8 ]

(* Streaming from a packed file and from the in-memory array are the
   same replay. *)
let test_stream_source_equivalence () =
  let n = 7_000 in
  let trace = trace_of ~seed:17 ~n "graph_walk" in
  let path = Filename.temp_file "atp_engine" ".atps" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.Stream.pack_array ~chunk_size:512 path trace;
      let from_mem = sharded ~policy:"lru" ~epoch_len:2_000 ~warmup:2_000 trace in
      let from_file =
        Engine.replay ~config:(config ())
          ~make_sim:(make_sim ~policy:"lru")
          (Trace.Stream.source path)
      in
      check totals_testable "file stream = array stream" from_mem from_file)

(* ------------------------------------------------------------------ *)
(* Streamed format round-trip                                          *)
(* ------------------------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "atp_trace" ".tmp" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* pack -> stream -> cat: writing any generated trace as text, packing
   the text into ATPS, streaming it back, and re-rendering as text
   must reproduce the original file byte-for-byte. *)
let prop_pack_stream_cat_roundtrip =
  QCheck.Test.make ~name:"pack -> stream -> cat round-trips byte-for-byte"
    ~count:100
    QCheck.(
      pair (int_range 1 64)
        (list_of_size Gen.(int_range 0 500) (int_bound 1_000_000)))
    (fun (chunk_size, pages) ->
      let trace = Array.of_list pages in
      with_temp (fun text_path ->
          with_temp (fun packed_path ->
              with_temp (fun out_path ->
                  Trace.save_text text_path trace;
                  Trace.pack ~chunk_size ~src:text_path ~dst:packed_path ();
                  let streamed = Trace.Stream.to_array packed_path in
                  Trace.save_text out_path streamed;
                  String.equal (read_file text_path) (read_file out_path)))))

(* Deltas can be negative and large; the zigzag varints must carry
   them. *)
let prop_stream_array_roundtrip =
  QCheck.Test.make ~name:"Stream.pack_array/to_array round-trip" ~count:100
    QCheck.(
      pair (int_range 1 32)
        (list_of_size
           Gen.(int_range 0 300)
           (make ~print:string_of_int
              Gen.(
                oneof
                  [
                    int_bound 100;
                    int_bound 1_000_000_000;
                    map (fun n -> (1 lsl 52) + n) (int_bound 1_000);
                  ]))))
    (fun (chunk_size, pages) ->
      let trace = Array.of_list pages in
      with_temp (fun path ->
          Trace.Stream.pack_array ~chunk_size path trace;
          let back = Trace.Stream.to_array path in
          let h = Trace.Stream.with_reader path Trace.Stream.header in
          h.Trace.Stream.length = Array.length trace
          && h.Trace.Stream.chunk_size = chunk_size
          && Array.length back = Array.length trace
          && Array.for_all2 ( = ) back trace))

let test_stream_errors () =
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOPE";
      close_out oc;
      check Alcotest.bool "bad magic raises" true
        (match Trace.Stream.to_array path with
        | exception Trace.Parse_error _ -> true
        | _ -> false));
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc "ATPS\001";
      close_out oc;
      check Alcotest.bool "truncated header raises" true
        (match Trace.Stream.to_array path with
        | exception Trace.Parse_error _ -> true
        | _ -> false));
  with_temp (fun path ->
      Trace.Stream.pack_array ~chunk_size:8 path (Array.init 100 (fun i -> i));
      let whole = read_file path in
      let oc = open_out_bin path in
      output_string oc (String.sub whole 0 (String.length whole - 3));
      close_out oc;
      check Alcotest.bool "truncated body raises" true
        (match Trace.Stream.to_array path with
        | exception Trace.Parse_error _ -> true
        | _ -> false))

let test_stream_empty () =
  with_temp (fun path ->
      Trace.Stream.pack_array path [||];
      check (Alcotest.array Alcotest.int) "empty trace round-trips" [||]
        (Trace.Stream.to_array path);
      check Alcotest.bool "source is immediately exhausted" true
        (Option.is_none (Trace.Stream.source path ())))

(* ------------------------------------------------------------------ *)
(* load_text regressions                                               *)
(* ------------------------------------------------------------------ *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_load_text_edge_cases () =
  with_temp (fun path ->
      write_file path "";
      check (Alcotest.array Alcotest.int) "empty file" [||]
        (Trace.load_text path));
  with_temp (fun path ->
      write_file path "# only\n# comments\n\n";
      check (Alcotest.array Alcotest.int) "comments-only file" [||]
        (Trace.load_text path));
  with_temp (fun path ->
      write_file path "1\n2\n3\n";
      check (Alcotest.array Alcotest.int) "trailing newline" [| 1; 2; 3 |]
        (Trace.load_text path));
  with_temp (fun path ->
      write_file path "1\n2\n3";
      check (Alcotest.array Alcotest.int) "no trailing newline" [| 1; 2; 3 |]
        (Trace.load_text path));
  with_temp (fun path ->
      write_file path "1\nnope\n";
      check Alcotest.bool "bad line raises" true
        (match Trace.load_text path with
        | exception Trace.Parse_error _ -> true
        | _ -> false))

(* workload_of_file opens the file once and dispatches all three
   formats; a text file shorter than the 4 magic bytes must still
   parse. *)
let test_workload_of_file_dispatch () =
  let trace = [| 5; 6; 7; 5 |] in
  let first_n w n = Array.to_list (Workload.generate w n) in
  with_temp (fun path ->
      Trace.save_text path trace;
      check (Alcotest.list Alcotest.int) "text" [ 5; 6; 7; 5 ]
        (first_n (Trace.workload_of_file path) 4));
  with_temp (fun path ->
      write_file path "1\n";
      check (Alcotest.list Alcotest.int) "tiny text file" [ 1; 1 ]
        (first_n (Trace.workload_of_file path) 2));
  with_temp (fun path ->
      Trace.save_binary path trace;
      check (Alcotest.list Alcotest.int) "binary" [ 5; 6; 7; 5 ]
        (first_n (Trace.workload_of_file path) 4));
  with_temp (fun path ->
      Trace.Stream.pack_array path trace;
      check (Alcotest.list Alcotest.int) "streamed" [ 5; 6; 7; 5 ]
        (first_n (Trace.workload_of_file path) 4));
  with_temp (fun path ->
      write_file path "";
      check Alcotest.bool "empty file refuses to replay" true
        (match Trace.workload_of_file path with
        | exception Invalid_argument _ -> true
        | _ -> false))

let test_pack_from_binary_and_streamed () =
  let trace = Array.init 1_000 (fun i -> (i * 37) mod 512) in
  with_temp (fun src ->
      with_temp (fun dst ->
          Trace.save_binary src trace;
          Trace.pack ~chunk_size:64 ~src ~dst ();
          check (Alcotest.array Alcotest.int) "ATPT -> ATPS" trace
            (Trace.Stream.to_array dst)));
  with_temp (fun src ->
      with_temp (fun dst ->
          Trace.Stream.pack_array ~chunk_size:100 src trace;
          Trace.pack ~chunk_size:64 ~src ~dst ();
          check (Alcotest.array Alcotest.int) "ATPS -> ATPS rechunk" trace
            (Trace.Stream.to_array dst)))

(* ------------------------------------------------------------------ *)
(* Tenant-partitioned replay: ragged partitions                        *)
(* ------------------------------------------------------------------ *)

(* The tenant-sharded differential matrix lives in test_fleet.ml; here
   we pin down the ragged shapes: more shards than tenants (most
   partitions empty), one giant tenant dominating a partition, and a
   stream whose tenants have all departed mid-way before a second
   wave arrives. *)

let tenant_report_t : Engine.tenant_report Alcotest.testable =
  Alcotest.testable Engine.pp_tenant_report ( = )

let make_tenant_sim ~policy tenant =
  let p = Registry.find_exn policy in
  let x =
    Policy.instantiate p
      ~rng:(Prng.create ~seed:(11 + tenant) ())
      ~capacity:16 ()
  in
  let y =
    Policy.instantiate p
      ~rng:(Prng.create ~seed:(13 + tenant) ())
      ~capacity:64 ()
  in
  Simulation.create ~seed:(7 + tenant) ~params ~x ~y ()

let tenant_source_of events =
  let i = ref 0 in
  fun () ->
    if !i >= Array.length events then None
    else begin
      let e = events.(!i) in
      incr i;
      Some e
    end

(* Deterministic interleaved access burst over the given tenants. *)
let burst ~seed ~n tenants =
  let rng = Prng.create ~seed () in
  List.init n (fun _ ->
      let t = List.nth tenants (Prng.int rng (List.length tenants)) in
      Engine.Taccess { tenant = t; page = Prng.int rng 512 })

let ragged_streams =
  [
    ( "more shards than tenants",
      Array.of_list
        (List.map (fun t -> Engine.Tarrive { tenant = t }) [ 0; 1; 2 ]
        @ burst ~seed:51 ~n:400 [ 0; 1; 2 ]
        @ [ Engine.Tdepart { tenant = 1 } ]
        @ burst ~seed:52 ~n:200 [ 0; 2 ]) );
    ( "one giant tenant",
      Array.of_list
        (burst ~seed:53 ~n:40 [ 1; 2; 3; 4 ]
        @ burst ~seed:54 ~n:4_000 [ 0 ]
        @ burst ~seed:55 ~n:40 [ 1; 2; 3; 4 ]) );
    ( "all tenants departed mid-stream",
      Array.of_list
        (burst ~seed:56 ~n:300 [ 0; 1; 2; 3 ]
        @ List.map (fun t -> Engine.Tdepart { tenant = t }) [ 3; 1; 0; 2 ]
        (* a departure for a tenant nobody ever saw is ignored *)
        @ [ Engine.Tdepart { tenant = 9 } ]
        @ burst ~seed:57 ~n:300 [ 4; 5 ]) );
  ]

let test_tenant_ragged_partitions () =
  List.iter
    (fun (name, events) ->
      List.iter
        (fun policy ->
          let seq =
            Engine.replay_tenants_sequential
              ~make_sim:(make_tenant_sim ~policy)
              (tenant_source_of events)
          in
          List.iter
            (fun shard_count ->
              let sharded =
                Engine.replay_tenants ~shards:shard_count
                  ~make_sim:(make_tenant_sim ~policy) (fun () ->
                    tenant_source_of events)
              in
              check (Alcotest.list tenant_report_t)
                (Printf.sprintf "%s: %s, %d shards" name policy shard_count)
                seq sharded)
            [ 1; 2; 4; 8; shards ])
        policies)
    ragged_streams

let test_tenant_replay_validation () =
  Alcotest.check_raises "shards must be positive"
    (Invalid_argument "Engine.replay_tenants: shards must be positive")
    (fun () ->
      ignore
        (Engine.replay_tenants ~shards:0 ~make_sim:(make_tenant_sim ~policy:"lru")
           (fun () -> tenant_source_of [||])));
  Alcotest.check_raises "negative tenant id"
    (Invalid_argument "Engine: negative tenant id") (fun () ->
      ignore
        (Engine.replay_tenants_sequential
           ~make_sim:(make_tenant_sim ~policy:"lru")
           (tenant_source_of [| Engine.Taccess { tenant = -1; page = 0 } |])))

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          Alcotest.test_case "every policy matches sequential" `Quick
            test_every_policy_exact;
          Alcotest.test_case "paging failures are exact" `Quick
            test_failures_exact;
          Alcotest.test_case "obs and trace events are exact" `Quick
            test_obs_and_trace_exact;
          Alcotest.test_case "full warm-up is exact" `Quick
            test_exact_full_warmup;
          Alcotest.test_case "single epoch boundary is exact" `Quick
            test_exact_single_boundary;
          Alcotest.test_case "ragged tail is exact" `Quick
            test_exact_ragged_tail;
          Alcotest.test_case "multi-epoch error is bounded" `Quick
            test_bounded_multi_epoch;
          Alcotest.test_case "shard count never changes totals" `Quick
            test_shards_invariant;
          Alcotest.test_case "file stream = array stream" `Quick
            test_stream_source_equivalence;
        ] );
      ( "tenant-partitions",
        [
          Alcotest.test_case "ragged shapes match sequential" `Quick
            test_tenant_ragged_partitions;
          Alcotest.test_case "validation" `Quick test_tenant_replay_validation;
        ] );
      ( "stream-format",
        qsuite [ prop_pack_stream_cat_roundtrip; prop_stream_array_roundtrip ]
        @ [
            Alcotest.test_case "corrupt files raise Parse_error" `Quick
              test_stream_errors;
            Alcotest.test_case "empty trace" `Quick test_stream_empty;
          ] );
      ( "text-format",
        [
          Alcotest.test_case "load_text edge cases" `Quick
            test_load_text_edge_cases;
          Alcotest.test_case "workload_of_file dispatch" `Quick
            test_workload_of_file_dispatch;
          Alcotest.test_case "pack from every format" `Quick
            test_pack_from_binary_and_streamed;
        ] );
    ]

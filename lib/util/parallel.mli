(** Deterministic parallel map over OCaml 5 domains.

    The benchmark harness evaluates many independent simulator
    configurations (one per huge-page size); each closure owns its
    state and reads only immutable inputs, so they parallelize
    trivially.  Results keep their input order.

    Two failure semantics are offered.  {!map}/{!map_array} abort on
    the first exception and re-raise it in the caller {e with the
    original backtrace preserved}: the trace is captured with
    [Printexc.get_raw_backtrace] in the failing domain at the catch
    site and re-raised via [Printexc.raise_with_backtrace], so the
    reported frames point at the task, not at the join.
    {!map_results}/{!map_results_array} never abort: every task runs
    to completion and each returns its own
    [Ok result | Error (exn, backtrace)] — the primitive the
    experiment runner ({!module:Atp_exp}) builds per-task outcome rows
    on.

    {!pipeline} is the one primitive with a fixed shape instead: two
    stages on two domains, handing blocks over through a double
    buffer.

    On OCaml < 5 (no [Domain]) a sequential implementation with the
    same interface is selected at build time. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()], at least 1; always 1 on the
    sequential fallback. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] evaluates [f] on every element using up to
    [domains] domains (default: the recommended count, capped at the
    number of elements).  [f] must not share mutable state across
    calls.  With [domains = 1] this is [List.map].  The first task
    exception is re-raised in the caller with its original backtrace;
    remaining unstarted tasks are skipped.
    @raise Invalid_argument if [domains] is given and less than 1. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** @raise Invalid_argument if [domains] is given and less than 1. *)

val map_results :
  ?domains:int ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn * Printexc.raw_backtrace) result list
(** Like {!map}, but a raising task never aborts the sweep: each
    element maps to [Ok result] or [Error (exn, backtrace)], with the
    backtrace captured in the raising domain.  All tasks run.
    @raise Invalid_argument if [domains] is given and less than 1. *)

val map_results_array :
  ?domains:int ->
  ('a -> 'b) ->
  'a array ->
  ('b, exn * Printexc.raw_backtrace) result array
(** @raise Invalid_argument if [domains] is given and less than 1. *)

val pipeline :
  ?domains:int ->
  make:(unit -> 'b) ->
  produce:('b -> bool) ->
  consume:('b -> unit) ->
  unit ->
  unit
(** [pipeline ~make ~produce ~consume ()] runs a two-stage pipeline
    over blocks built by [make].  Stage 1, [produce b], fills block
    [b] and returns [false] once its input has ended ([b] is then the
    last block and may hold less than a full block, or nothing).
    Stage 2, [consume b], is applied to every produced block in
    production order, the last one included.

    With two domains (the default when the machine recommends at
    least two) stage 1 runs on a spawned domain and stage 2 on the
    caller's, over two blocks: stage 1 fills one while stage 2 reads
    the other, and neither stage ever sees a block the other is
    using.  [make] is called twice, on the caller's domain, before
    the spawn.  Stage 1 and stage 2 must not share mutable state
    except through the blocks.  With [domains = 1] (and on the
    sequential fallback) [make] is called once and the caller's
    domain alternates [produce] and [consume] on that one block.

    The first exception raised by either stage is re-raised in the
    caller with its original backtrace, as {!map} does, after the
    other stage has been stopped at its next block boundary and the
    spawned domain joined.
    @raise Invalid_argument if [domains] is given and less than 1. *)

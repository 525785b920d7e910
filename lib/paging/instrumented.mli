(** Observability wrappers for replacement policies.

    Two forms, for the two ways policies are consumed:

    - {!Make} lifts a policy module to one whose instances also bump
      obs counters, preserving the {!Policy.S} signature so wrapped
      modules drop into {!Registry}-style sweeps unchanged;
    - {!wrap} decorates an already-instantiated {!Policy.instance} —
      the form the simulators use, since they work with instances.

    Both register [accesses]/[hits]/[misses]/[evictions] counters under
    the given scope and emit an [eviction] trace event per victim. *)

module Make (_ : Policy.S) : sig
  include Policy.S

  val create_observed :
    ?rng:Atp_util.Prng.t ->
    ?obs:Atp_obs.Scope.t ->
    capacity:int ->
    unit ->
    t
  (** Like [create], with an explicit scope.  Plain [create] observes
      into a private throwaway registry. *)
end

val wrap : obs:Atp_obs.Scope.t -> Policy.instance -> Policy.instance
(** The wrapped instance shares all state with the original (same
    [name]/[capacity]); only [access_fast], and the [access] view
    built on it, are decorated. *)

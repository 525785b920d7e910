(** Least-recently-used replacement (Sleator–Tarjan's canonical online
    policy).  O(1) per access. *)

include Policy.S

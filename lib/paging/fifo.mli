(** First-in-first-out replacement: eviction order is insertion order;
    hits do not refresh a page. *)

include Policy.S

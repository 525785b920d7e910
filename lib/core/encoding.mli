(** TLB value encoding and decoding (the ψ and f of Section 3).

    A TLB value ψ(u) for a virtual huge page [u] packs [h_max] fields
    of [bits_per_page] bits.  Field [i] describes the [i]-th
    constituent page [v = u·h_max + i]: either the null code (page not
    in the active set, or unplaceable due to a paging failure), or a
    pair (choice, slot) from which the decoder reconstructs the
    physical frame as [h_choice(v)·B + slot].

    The ψ values of many huge pages live back to back in one {!arena}:
    the huge page given slot [s] owns fields [[s·h_max, (s+1)·h_max)].
    Every read and write below addresses one field by its arena index
    ({!field_of}).

    The decoding function [f] is fixed at creation time: it depends
    only on the geometry and the allocator's hash seeds (the scheme's
    random bits), never on mutable state — exactly the contract the
    paper requires of [f]. *)

type t

type arena = Atp_util.Packed_array.t
(** The ψ of every slot, [h_max] packed fields each.  Mutated in place
    as constituent pages come and go, which costs nothing in the
    model. *)

val create : Alloc.t -> t

val h_max : t -> int

val bits_used : t -> int
(** [h_max × bits_per_page]; always [<= w]. *)

val null_code : t -> int
(** The field value meaning ⊥. *)

val huge_of : t -> int -> int
(** [r(v) = v / h_max], the covering huge page. *)

val index_of : t -> int -> int
(** [v mod h_max], the field index of [v] within ψ(r(v)). *)

(** {2 The arena} *)

val create_arena : t -> slots:int -> arena
(** Room for [slots] ψ values.  The fields start at zero, not null:
    {!clear_slot} a slot before its first use. *)

val grow_arena : t -> arena -> slots:int -> arena
(** A copy with room for [slots] ψ values; existing slots keep their
    fields, new ones start at zero.

    @raise Invalid_argument if [slots] is below the current room. *)

val field_of : t -> slot:int -> int -> int
(** [field_of t ~slot v] is the arena index of page [v]'s field in the
    ψ held at [slot]: [slot·h_max + v mod h_max]. *)

val clear_slot : t -> arena -> int -> unit
(** Set every field of a slot's ψ to null. *)

val is_empty : t -> arena -> int -> bool
(** Every field of a slot's ψ is null. *)

(** {2 Fields} *)

val set_code : t -> arena -> int -> int -> unit
(** [set_code t arena field code] writes a field directly from a
    packed {!Alloc} code ([{!Alloc.insert_code}]'s return): the code
    itself when placed ([>= 0]), null otherwise.  Allocation-free —
    the hot insert path uses this instead of {!refresh_page}'s
    allocator lookup. *)

val refresh_page : t -> arena -> int -> int -> unit
(** [refresh_page t arena field v] re-encodes page [v]'s field from
    the allocator's current location: (choice, slot) if placed, null
    if absent or in fallback (paging failure ⇒ no encoding ⇒ decoding
    misses, per Theorem 4). *)

val clear_field : t -> arena -> int -> unit
(** Set a field to null. *)

val decode : t -> arena -> int -> int -> int
(** [decode t arena field v] is the paper's [f(v, ψ(u))], reading
    page [v]'s field: the physical frame of [v], or [-1].  Pure with
    respect to allocator state: it reads only hash seeds and the
    packed fields. *)

open Atp_util

type t = { slots : Slots.t; order : Lru_list.t }

let name = "mru"

let create ?rng ~capacity () =
  ignore rng;
  { slots = Slots.create capacity; order = Lru_list.create capacity }

let capacity t = Slots.capacity t.slots

let size t = Slots.size t.slots

let mem t page = Slots.slot_of_page t.slots page <> None

let access t page =
  let slot = Slots.find_slot t.slots page in
  if slot >= 0 then begin
    Lru_list.move_to_front t.order slot;
    Policy.fast_hit
  end
  else begin
    let evicted =
      if Slots.is_full t.slots then begin
        (* Evict the most recently used page: the list front. *)
        match Lru_list.front t.order with
        | None -> assert false
        | Some victim_slot ->
          Lru_list.remove t.order victim_slot;
          Slots.release t.slots victim_slot
      end
      else Policy.fast_miss_free
    in
    let slot = Slots.alloc t.slots page in
    Lru_list.push_front t.order slot;
    evicted
  end

let remove t page =
  match Slots.slot_of_page t.slots page with
  | None -> false
  | Some slot ->
    Lru_list.remove t.order slot;
    ignore (Slots.release t.slots slot);
    true

let resident t = Slots.resident t.slots

open Hyder_tree
open Node

type stats = { live_nodes : int; tombstones_dropped : int }

let compact ~pos state =
  (* Collect live nodes in key order, preserving payload and content
     version; rebuild canonically. *)
  let live = ref [] in
  let dropped = ref 0 in
  Tree.iter state (fun n ->
      if Payload.is_tombstone n.payload then incr dropped
      else live := n :: !live);
  let items = Array.of_list (List.rev !live) in
  let n = Array.length items in
  let rec build lo hi =
    if lo >= hi then Node.empty
    else begin
      let best = ref lo in
      for i = lo + 1 to hi - 1 do
        if Key.priority_greater items.(i).key items.(!best).key then best := i
      done;
      let src = items.(!best) in
      let left = build lo !best in
      let right = build (!best + 1) hi in
      (* vn := (pos, idx), logged; cv and its class kept; no sources *)
      Node.pack ~key:src.key ~payload:src.payload ~left ~right ~vn_a:pos
        ~vn_b:!best ~cv_a:src.cv_a ~cv_b:src.cv_b
        ~meta:
          (Meta.owner_bits state_owner lor (src.meta land Meta.cv_ephemeral))
        ~ssv_a:0 ~ssv_b:0 ~scv_a:0 ~scv_b:0
    end
  in
  let tree = build 0 n in
  (tree, { live_nodes = n; tombstones_dropped = !dropped })

(* --- durable checkpoints ------------------------------------------------ *)

type t = {
  seq : int;
  pos : int;
  store : State_store.Snapshot.t;
  compacted : Tree.t;
  compact_stats : stats;
  alloc_issued : int array;
  counters : Counters.t;
}

let capture ~store ~alloc_issued ~counters =
  let seq, pos = State_store.Snapshot.latest store in
  let state =
    match State_store.Snapshot.by_seq store seq with
    | Some s -> s
    | None -> assert false (* seq = -1 resolves to genesis *)
  in
  let compacted, compact_stats = compact ~pos state in
  {
    seq;
    pos;
    store;
    compacted;
    compact_stats;
    alloc_issued = Array.copy alloc_issued;
    counters = Counters.copy counters;
  }

let state t =
  match State_store.Snapshot.by_seq t.store t.seq with
  | Some s -> s
  | None -> assert false

open Hyder_tree
open Node

type isolation = Serializable | Snapshot_isolation | Read_committed

let isolation_to_string = function
  | Serializable -> "serializable"
  | Snapshot_isolation -> "snapshot-isolation"
  | Read_committed -> "read-committed"

type draft = {
  snapshot : int;
  server : int;
  txn_seq : int;
  isolation : isolation;
  root : Node.tree;
}

type t = {
  pos : int;
  snapshot : int;
  server : int;
  txn_seq : int;
  isolation : isolation;
  root : Node.tree;
  node_count : int;
  byte_size : int;
}

(* The draft owner must outrank every real log position and still leave
   [Meta.owner_bits draft_owner] an immediate int (owner + 1 shifted left
   by [Meta.owner_shift] = 10 has to fit in 62 bits — [max_int] would
   wrap to the state owner's zero bits). *)
let draft_owner = 1 lsl 51
let draft_owner_bits = Meta.owner_bits draft_owner

let assign ~pos ?(byte_size = 0) (d : draft) =
  let count = ref 0 in
  let ob = Meta.owner_bits pos in
  (* Post-order renumbering of draft nodes; shared (snapshot) subtrees are
     left untouched.  Must mirror the decoder exactly: it reads the records
     in pre-order and numbers each node as its walk returns. *)
  let rec go t =
    (* The sentinel's meta (0) never carries the draft owner bits, so the
       same-owner test also stops the recursion at empty. *)
    if t.meta land Meta.owner_mask <> draft_owner_bits then t
    else begin
      let left = go t.left in
      let right = go t.right in
      let idx = !count in
      incr count;
      (* vn := (pos, idx), logged; an altered node's cv follows it *)
      let meta = ob lor (t.meta land Meta.carry_mask) in
      if t.meta land Meta.altered <> 0 then
        Node.pack ~key:t.key ~payload:t.payload ~left ~right ~vn_a:pos
          ~vn_b:idx ~cv_a:pos ~cv_b:idx
          ~meta:(meta land lnot Meta.cv_ephemeral)
          ~ssv_a:t.ssv_a ~ssv_b:t.ssv_b ~scv_a:t.scv_a ~scv_b:t.scv_b
      else
        Node.pack ~key:t.key ~payload:t.payload ~left ~right ~vn_a:pos
          ~vn_b:idx ~cv_a:t.cv_a ~cv_b:t.cv_b ~meta ~ssv_a:t.ssv_a
          ~ssv_b:t.ssv_b ~scv_a:t.scv_a ~scv_b:t.scv_b
    end
  in
  let root = go d.root in
  {
    pos;
    snapshot = d.snapshot;
    server = d.server;
    txn_seq = d.txn_seq;
    isolation = d.isolation;
    root;
    node_count = !count;
    byte_size;
  }

let node_count t = t.node_count
let inside t (n : Node.node) = Node.owner n = t.pos

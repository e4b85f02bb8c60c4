open Hyder_tree
module Intention = Hyder_codec.Intention

type t = {
  snapshot_pos : int;
  server : int;
  txn_seq : int;
  isolation : Intention.isolation;
  current : unit -> Tree.t;
  mutable working : Tree.t;
  mutable next_draft : int;
  mutable reads : Key.t list;
  mutable writes : Key.t list;
  mutable wrote_anything : bool;
  mutable finished : bool;
}

let begin_txn ?current ~snapshot_pos ~snapshot ~server ~txn_seq ~isolation ()
    =
  {
    snapshot_pos;
    server;
    txn_seq;
    isolation;
    current = (match current with Some f -> f | None -> fun () -> snapshot);
    working = snapshot;
    next_draft = 0;
    reads = [];
    writes = [];
    wrote_anything = false;
    finished = false;
  }

let check_active t op =
  if t.finished then invalid_arg (Printf.sprintf "Executor.%s: finished" op)

(* The next draft version's index: [Tree] gives the node the logged
   version [(max_int, idx)], a word pair, not a box. *)
let fresh t () =
  let idx = t.next_draft in
  t.next_draft <- idx + 1;
  idx

let owner = Intention.draft_owner

let read t key =
  check_active t "read";
  match t.isolation with
  | Intention.Serializable ->
      let working, result = Tree.read t.working ~owner ~fresh:(fresh t) key in
      t.working <- working;
      t.reads <- key :: t.reads;
      result
  | Intention.Snapshot_isolation ->
      t.reads <- key :: t.reads;
      Tree.lookup t.working key
  | Intention.Read_committed -> (
      t.reads <- key :: t.reads;
      (* Own writes first, then the freshest committed state. *)
      match Tree.find t.working key with
      | Some n when Node.owner n = owner ->
          if Payload.is_tombstone n.Node.payload then None
          else Some n.Node.payload
      | _ -> Tree.lookup (t.current ()) key)

let read_range t ~lo ~hi =
  check_active t "read_range";
  if Key.compare lo hi > 0 then invalid_arg "Executor.read_range: empty range";
  let items = Tree.range_items t.working ~lo ~hi in
  (match t.isolation with
  | Intention.Serializable ->
      t.working <- Tree.touch_range t.working ~owner ~fresh:(fresh t) ~lo ~hi
  | Intention.Snapshot_isolation | Intention.Read_committed -> ());
  items

let write t key value =
  check_active t "write";
  t.working <-
    Tree.upsert t.working ~owner ~fresh:(fresh t) key (Payload.value value);
  t.writes <- key :: t.writes;
  t.wrote_anything <- true

let delete t key =
  check_active t "delete";
  t.working <- Tree.upsert t.working ~owner ~fresh:(fresh t) key Payload.tombstone;
  t.writes <- key :: t.writes;
  t.wrote_anything <- true

let finish t =
  check_active t "finish";
  t.finished <- true;
  if not t.wrote_anything then None
  else
    Some
      {
        Intention.snapshot = t.snapshot_pos;
        server = t.server;
        txn_seq = t.txn_seq;
        isolation = t.isolation;
        root = t.working;
      }

let reads t = t.reads
let writes t = t.writes
let snapshot_pos t = t.snapshot_pos
let working_tree t = t.working

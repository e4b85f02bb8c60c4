open Hyder_tree
open Node

type mode = Final | Transaction of { out_owner : int }

type abort_reason =
  | Write_conflict of Key.t
  | Read_conflict of Key.t
  | Phantom_conflict of Key.t

let abort_reason_to_string = function
  | Write_conflict k -> Printf.sprintf "write-write conflict on key %d" k
  | Read_conflict k -> Printf.sprintf "read-write conflict on key %d" k
  | Phantom_conflict k -> Printf.sprintf "structure conflict at key %d" k

type result = Merged of Node.tree | Conflict of abort_reason

exception Abort of abort_reason

exception
  Corrupt_intention of string
    (* invariant violation: only raised on malformed inputs *)

(* Group meld subtlety (Section 4): when the state side is itself an earlier
   intention, it is NOT a superset of the later transaction's snapshot — the
   two snapshots can be ordered either way.  Conflict checks against data
   the earlier member did not itself write are therefore deferred to final
   meld (by carrying the dependency metadata into the merged node), and when
   both members depend on a key, the merged metadata refers to the EARLIER
   snapshot ("n12's readset must refer to the maximum of n1's and n2's
   conflict zones").  The adjacency of the two intentions in the log makes
   the single earlier reference sufficient: no third transaction can sit
   between them. *)

(* The hot loop works directly on the packed metadata word (Node.Meta):
   every per-visit test is a mask-and-compare on [meta] or a word compare
   of two versions, every constructed node is a single [Node.pack] — no
   options, tuples, version boxes or [caml_equal] per visit.  The workers
   below are top-level functions over one [env] record so a meld call
   allocates exactly one block of bookkeeping; the happy path then
   allocates only the ephemeral nodes themselves. *)

type env = {
  counters : Counters.stage;
  alloc : Vn.Alloc.t;
  thread : int;  (** [Vn.Alloc.thread alloc]: every ephemeral vn's [a] word *)
  (* Owner bits of the melding members: [b0]/[b1] cover the common
     one-intention and group-pair shapes with straight compares ([b1 = b0]
     for a singleton); [more] holds any further members (empty in
     practice).  [no_member] marks an empty member list. *)
  b0 : int;
  b1 : int;
  more : int list;
  transaction_mode : bool;
  state_is_intention : bool;
  out_bits : int;
  intention_snapshot : int;
  state_snapshot : int;
}

(* Owner bits are [(owner + 1) lsl owner_shift] with owner >= -1, so any
   real value is >= 0 and a negative sentinel never matches. *)
let no_member = min_int

let[@inline] inside_meta env meta =
  let ob = meta land Meta.owner_mask in
  ob = env.b0 || ob = env.b1
  || (match env.more with [] -> false | ms -> List.mem ob ms)

let[@inline] visit env =
  env.counters.Counters.nodes_visited <-
    env.counters.Counters.nodes_visited + 1

(* The next ephemeral vn, [(env.thread, seq)], as its [seq] word. *)
let[@inline] fresh env =
  env.counters.Counters.ephemerals <- env.counters.Counters.ephemerals + 1;
  Vn.Alloc.next_seq env.alloc

(* A meld-made node: its vn is the ephemeral [(env.thread, seq)].  [meta]
   carries the cv class; the vn class is set here. *)
let[@inline] mk env ~seq ~key ~payload ~left ~right ~cv_a ~cv_b ~meta ~ssv_a
    ~ssv_b ~scv_a ~scv_b =
  Node.pack ~key ~payload ~left ~right ~vn_a:env.thread ~vn_b:seq ~cv_a ~cv_b
    ~meta:(meta lor Meta.vn_ephemeral) ~ssv_a ~ssv_b ~scv_a ~scv_b

(* Presence + class bits of a degrafted ssv: the node's own fresh,
   ephemeral vn. *)
let degrafted = Meta.ssv_present lor Meta.ssv_ephemeral

(* A node's ssv doubles as the graft precondition: "this subtree equals
   version ssv plus my own changes".  A copy made on a SPLIT PATH holds
   only half of its source's subtree, so it must never be graftable: it
   keeps its content metadata (scv) but takes its own fresh VN as ssv — a
   version no state will ever hold — unless it was an insert (no ssv),
   which stays an insert. *)
(* Under group meld every created node additionally degrafts: the merge
   can mix the newer member's view with the older member's stale snapshot
   subtrees, so no created node may claim its subtree is current.  Nodes
   adopted wholesale from one member keep their honest claims. *)

(* Ephemeral copy of a state-side (or snapshot) node with new children. *)
let eph_of_state env ~restructured (nl : node) ~left ~right =
  let seq = fresh env in
  let cvc = nl.meta land Meta.cv_ephemeral in
  if not env.transaction_mode then
    mk env ~seq ~key:nl.key ~payload:nl.payload ~left ~right ~cv_a:nl.cv_a
      ~cv_b:nl.cv_b ~meta:cvc ~ssv_a:0 ~ssv_b:0 ~scv_a:0 ~scv_b:0
  else if env.state_is_intention && inside_meta env nl.meta then begin
    (* mine: keep snapshot-relative metadata, new owner *)
    let m = env.out_bits lor (nl.meta land Meta.flags_mask) in
    if
      nl.meta land Meta.ssv_present <> 0
      && (restructured || env.state_is_intention)
    then
      mk env ~seq ~key:nl.key ~payload:nl.payload ~left ~right ~cv_a:nl.cv_a
        ~cv_b:nl.cv_b ~meta:(m lor Meta.ssv_ephemeral) ~ssv_a:env.thread
        ~ssv_b:seq ~scv_a:nl.scv_a ~scv_b:nl.scv_b
    else
      mk env ~seq ~key:nl.key ~payload:nl.payload ~left ~right ~cv_a:nl.cv_a
        ~cv_b:nl.cv_b ~meta:m ~ssv_a:nl.ssv_a ~ssv_b:nl.ssv_b ~scv_a:nl.scv_a
        ~scv_b:nl.scv_b
  end
  else if restructured || env.state_is_intention then
    (* snapshot node becomes the source, immediately degrafted *)
    mk env ~seq ~key:nl.key ~payload:nl.payload ~left ~right ~cv_a:nl.cv_a
      ~cv_b:nl.cv_b
      ~meta:(env.out_bits lor cvc lor degrafted lor Meta.scv_of_cv nl.meta)
      ~ssv_a:env.thread ~ssv_b:seq ~scv_a:nl.cv_a ~scv_b:nl.cv_b
  else
    mk env ~seq ~key:nl.key ~payload:nl.payload ~left ~right ~cv_a:nl.cv_a
      ~cv_b:nl.cv_b
      ~meta:(env.out_bits lor cvc lor Meta.sources_of nl.meta)
      ~ssv_a:nl.vn_a ~ssv_b:nl.vn_b ~scv_a:nl.cv_a ~scv_b:nl.cv_b

(* Ephemeral copy of an intention-side node whose conflict checks have not
   happened yet (restructuring around a concurrent insert): metadata and
   ownership must survive so the checks still fire deeper in the merge. *)
let eph_of_intention env ~restructured (ni : node) ~left ~right =
  let seq = fresh env in
  if
    ni.meta land Meta.ssv_present <> 0
    && (restructured || env.state_is_intention)
  then
    mk env ~seq ~key:ni.key ~payload:ni.payload ~left ~right ~cv_a:ni.cv_a
      ~cv_b:ni.cv_b ~meta:(ni.meta lor Meta.ssv_ephemeral) ~ssv_a:env.thread
      ~ssv_b:seq ~scv_a:ni.scv_a ~scv_b:ni.scv_b
  else
    mk env ~seq ~key:ni.key ~payload:ni.payload ~left ~right ~cv_a:ni.cv_a
      ~cv_b:ni.cv_b ~meta:ni.meta ~ssv_a:ni.ssv_a ~ssv_b:ni.ssv_b
      ~scv_a:ni.scv_a ~scv_b:ni.scv_b

(* Which side a merged node's metadata comes from (transaction mode).
   The source metadata (ssv/scv) — and, for unaltered nodes, the payload
   and content version it must stay consistent with — comes from whichever
   side speaks for the earlier history. *)
let[@inline] meta_from_state env ~mi ~nl_mine (nl : node) =
  if not env.state_is_intention then true (* premeld: refresh vs LCS *)
  else begin
    let ni_dep = mi land Meta.dependent_mask <> 0 in
    let nl_dep = nl_mine && nl.meta land Meta.dependent_mask <> 0 in
    if ni_dep && nl_dep then env.state_snapshot <= env.intention_snapshot
    else if nl_dep then true
    else if ni_dep then false
    else nl_mine
  end

(* A merged node whose source metadata comes from the state side [nl]
   (degrafted under group meld); [meta] carries the dependency flags and
   the chosen cv's class. *)
let merged_from_state env ~seq ~key ~payload ~left ~right ~cv_a ~cv_b ~meta
    ~nl_mine (nl : node) =
  if nl_mine then begin
    let m = meta lor (nl.meta land Meta.source_mask) in
    if env.state_is_intention && nl.meta land Meta.ssv_present <> 0 then
      mk env ~seq ~key ~payload ~left ~right ~cv_a ~cv_b
        ~meta:(m lor Meta.ssv_ephemeral) ~ssv_a:env.thread ~ssv_b:seq
        ~scv_a:nl.scv_a ~scv_b:nl.scv_b
    else
      mk env ~seq ~key ~payload ~left ~right ~cv_a ~cv_b ~meta:m
        ~ssv_a:nl.ssv_a ~ssv_b:nl.ssv_b ~scv_a:nl.scv_a ~scv_b:nl.scv_b
  end
  else if env.state_is_intention then
    mk env ~seq ~key ~payload ~left ~right ~cv_a ~cv_b
      ~meta:(meta lor degrafted lor Meta.scv_of_cv nl.meta)
      ~ssv_a:env.thread ~ssv_b:seq ~scv_a:nl.cv_a ~scv_b:nl.cv_b
  else
    mk env ~seq ~key ~payload ~left ~right ~cv_a ~cv_b
      ~meta:(meta lor Meta.sources_of nl.meta)
      ~ssv_a:nl.vn_a ~ssv_b:nl.vn_b ~scv_a:nl.cv_a ~scv_b:nl.cv_b

(* A merged node whose source metadata comes from the intention side:
   [mi] its meta, [ssv_a .. scv_b] its source words. *)
let[@inline] merged_from_intention env ~seq ~key ~payload ~left ~right ~cv_a
    ~cv_b ~meta ~mi ~ssv_a ~ssv_b ~scv_a ~scv_b =
  let m = meta lor (mi land Meta.source_mask) in
  if env.state_is_intention && mi land Meta.ssv_present <> 0 then
    mk env ~seq ~key ~payload ~left ~right ~cv_a ~cv_b
      ~meta:(m lor Meta.ssv_ephemeral) ~ssv_a:env.thread ~ssv_b:seq ~scv_a
      ~scv_b
  else
    mk env ~seq ~key ~payload ~left ~right ~cv_a ~cv_b ~meta:m ~ssv_a ~ssv_b
      ~scv_a ~scv_b

(* Merged node for a key present on both sides, after conflict checks. *)
let merged_node env (ni : node) (nl : node) ~left ~right =
  let seq = fresh env in
  let key = ni.key in
  if not env.transaction_mode then begin
    if ni.meta land Meta.altered <> 0 then
      mk env ~seq ~key ~payload:ni.payload ~left ~right ~cv_a:ni.cv_a
        ~cv_b:ni.cv_b ~meta:(ni.meta land Meta.cv_ephemeral) ~ssv_a:0 ~ssv_b:0
        ~scv_a:0 ~scv_b:0
    else
      mk env ~seq ~key ~payload:nl.payload ~left ~right ~cv_a:nl.cv_a
        ~cv_b:nl.cv_b ~meta:(nl.meta land Meta.cv_ephemeral) ~ssv_a:0 ~ssv_b:0
        ~scv_a:0 ~scv_b:0
  end
  else begin
    let nl_mine = env.state_is_intention && inside_meta env nl.meta in
    let from_state = meta_from_state env ~mi:ni.meta ~nl_mine nl in
    let dep =
      ni.meta land Meta.dependent_mask
      lor if nl_mine then nl.meta land Meta.dependent_mask else 0
    in
    let ni_w = ni.meta land Meta.altered <> 0 in
    let nl_w = nl_mine && nl.meta land Meta.altered <> 0 in
    (* payload and content version travel together *)
    let c = if ni_w || not (nl_w || from_state) then ni else nl in
    let meta = env.out_bits lor dep lor (c.meta land Meta.cv_ephemeral) in
    (* degraft created nodes under group meld *)
    if from_state then
      merged_from_state env ~seq ~key ~payload:c.payload ~left ~right
        ~cv_a:c.cv_a ~cv_b:c.cv_b ~meta ~nl_mine nl
    else
      merged_from_intention env ~seq ~key ~payload:c.payload ~left ~right
        ~cv_a:c.cv_a ~cv_b:c.cv_b ~meta ~mi:ni.meta ~ssv_a:ni.ssv_a
        ~ssv_b:ni.ssv_b ~scv_a:ni.scv_a ~scv_b:ni.scv_b
  end

(* Split the state side around a key it does not contain; the copies along
   the split path are ephemeral. *)
let rec split_state env nl key =
  if nl == empty then (empty, empty)
  else begin
    visit env;
    if Key.compare nl.key key < 0 then begin
      let a, b = split_state env nl.right key in
      (eph_of_state env ~restructured:true nl ~left:nl.left ~right:a, b)
    end
    else begin
      let a, b = split_state env nl.left key in
      (a, eph_of_state env ~restructured:true nl ~left:b ~right:nl.right)
    end
  end

(* Split the intention side around a concurrently inserted key. *)
let rec split_intention env ni key =
  if ni == empty then (empty, empty)
  else begin
    visit env;
    if Key.compare ni.key key < 0 then begin
      let a, b = split_intention env ni.right key in
      let n =
        if inside_meta env ni.meta then
          eph_of_intention env ~restructured:true ni ~left:ni.left ~right:a
        else eph_of_state env ~restructured:true ni ~left:ni.left ~right:a
      in
      (n, b)
    end
    else begin
      let a, b = split_intention env ni.left key in
      let n =
        if inside_meta env ni.meta then
          eph_of_intention env ~restructured:true ni ~left:b ~right:ni.right
        else eph_of_state env ~restructured:true ni ~left:b ~right:ni.right
      in
      (a, n)
    end
  end

(* Conflict checks for a key present on both sides. *)
let check_node env (ni : node) (nl : node) =
  if ni.meta land Meta.ssv_present = 0 then begin
    (* T inserted the key, yet the state has it.  Even in group meld
       this is a genuine conflict: keys never disappear, so the key was
       created inside the later member's conflict zone. *)
    if ni.meta land Meta.altered <> 0 then raise (Abort (Write_conflict ni.key))
    else
      raise
        (Corrupt_intention
           (Printf.sprintf "non-insert node %d without ssv" ni.key))
  end
  else begin
    let nl_mine = env.state_is_intention && inside_meta env nl.meta in
    if ni.meta land (Meta.altered lor Meta.dep_content) <> 0 then begin
      let do_check =
        if not env.state_is_intention then true
        else
          (* Against an earlier intention, only its own writes can
             conflict here; anything else is older/newer snapshot skew
             and is re-checked by final meld. *)
          nl_mine && nl.meta land Meta.altered <> 0
      in
      if do_check then begin
        if ni.meta land Meta.scv_present = 0 then
          raise
            (Corrupt_intention
               (Printf.sprintf "node %d has ssv but no scv" ni.key));
        if not (Node.scv_equals ni nl) then
          raise
            (Abort
               (if ni.meta land Meta.altered <> 0 then Write_conflict ni.key
                else Read_conflict ni.key))
      end
    end;
    if ni.meta land Meta.dep_structure <> 0 then begin
      (* The graft fast path did not fire, so the subtree version
         differs from what the transaction read. *)
      if not env.state_is_intention then raise (Abort (Phantom_conflict ni.key))
      else if nl_mine && nl.meta land Meta.has_writes <> 0 then
        (* The earlier member restructured this subtree. *)
        raise (Abort (Phantom_conflict ni.key))
      else if env.intention_snapshot < env.state_snapshot then
        (* The state side's view is newer: the structural change is
           committed and inside the conflict zone. *)
        raise (Abort (Phantom_conflict ni.key))
      (* else: our view is newer than the earlier member's; defer. *)
    end
  end

let rec go env i l =
  if i == l then l
  else if i == empty || not (inside_meta env i.meta) then
    (* Empty or untouched by the transaction: the state side wins
       unconditionally.  (The sentinel's meta is 0, which never matches a
       member's owner bits.) *)
    l
  else if l == empty then
    (* Virgin territory on the state side: adopt the intention's
       subtree wholesale.  (Under group meld the region may also be
       merely invisible to the earlier member; the metadata rides
       along and final meld revalidates it.) *)
    i
  else begin
    let ni = i and nl = l in
    visit env;
    if Node.ssv_equals ni nl then begin
      (* Graft fast path: the version this subtree was derived from
         is still current — nothing concurrent happened below. *)
      env.counters.Counters.grafts <- env.counters.Counters.grafts + 1;
      if ni.meta land Meta.has_writes <> 0 then i
      else if env.transaction_mode then
        (* Section 3.3: keep the intention's read-only subtree so
           the output retains readset metadata. *)
        i
      else l
    end
    else begin
      let c = Key.compare ni.key nl.key in
      if c = 0 then begin
        check_node env ni nl;
        let left = go env ni.left nl.left in
        let right = go env ni.right nl.right in
        if
          ni.meta land Meta.dependent_mask = 0
          && left == nl.left && right == nl.right
        then l
        else if
          (not env.transaction_mode)
          && ni.meta land Meta.altered <> 0
          && left == ni.left && right == ni.right
        then i
        else if
          (not env.transaction_mode)
          && ni.meta land Meta.altered = 0
          && left == nl.left && right == nl.right
        then l
        else merged_node env ni nl ~left ~right
      end
      else if Key.priority_greater ni.key nl.key then begin
        (* The intention holds a key that outranks this whole state
           region: splice it in, splitting the state around it.  In
           a full state this can only be a fresh insert; under group
           meld it can also be snapshot data the earlier member
           cannot see yet. *)
        if ni.meta land Meta.ssv_present <> 0 && not env.state_is_intention
        then
          raise
            (Corrupt_intention
               (Printf.sprintf
                  "node %d outranks state root %d but has a source \
                   (ssv=%s owner=%d altered=%b vn=%s mode=%s)"
                  ni.key nl.key
                  (match Node.ssv ni with
                  | Some v -> Vn.to_string v
                  | None -> "-")
                  (Node.owner ni) (Node.altered ni)
                  (Vn.to_string (Node.vn ni))
                  (if env.transaction_mode then "txn" else "final")));
        let ll, lr = split_state env l ni.key in
        let left = go env ni.left ll in
        let right = go env ni.right lr in
        if left == ni.left && right == ni.right then i
        else eph_of_intention env ~restructured:false ni ~left ~right
      end
      else begin
        (* A key unknown to the intention outranks its region: the
           state's node roots the merge and the intention splits. *)
        let il, ir = split_intention env i nl.key in
        let left = go env il nl.left in
        let right = go env ir nl.right in
        if left == nl.left && right == nl.right then l
        else eph_of_state env ~restructured:false nl ~left ~right
      end
    end
  end

let meld ~mode ?(state_is_intention = false) ?(intention_snapshot = 0)
    ?(state_snapshot = -1) ~members ~alloc ~(counters : Counters.stage)
    ~intention ~state () =
  let transaction_mode, out_owner =
    match mode with
    | Final -> (false, Node.state_owner)
    | Transaction { out_owner } -> (true, out_owner)
  in
  let b0, b1, more =
    match members with
    | [] -> (no_member, no_member, [])
    | [ m0 ] ->
        let b = Meta.owner_bits m0 in
        (b, b, [])
    | [ m0; m1 ] -> (Meta.owner_bits m0, Meta.owner_bits m1, [])
    | m0 :: m1 :: ms ->
        (Meta.owner_bits m0, Meta.owner_bits m1, List.map Meta.owner_bits ms)
  in
  let env =
    {
      counters;
      alloc;
      thread = Vn.Alloc.thread alloc;
      b0;
      b1;
      more;
      transaction_mode;
      state_is_intention;
      out_bits = Meta.owner_bits out_owner;
      intention_snapshot;
      state_snapshot;
    }
  in
  match go env intention state with
  | merged -> Merged merged
  | exception Abort reason ->
      counters.aborts <- counters.aborts + 1;
      Conflict reason

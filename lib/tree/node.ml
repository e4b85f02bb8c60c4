(* Per-node OCC metadata lives in one immediate int ([meta]) plus plain
   int words for the versions — the node's own vn and cv and the source
   versions ssv/scv — so the meld hot loops test flags with masks and
   compare versions word by word instead of chasing a boxed [Vn.t].  See
   node.mli and DESIGN.md §11 for the layout.

   The empty tree is a statically-allocated sentinel node ([empty],
   self-referential children) rather than a variant constructor: child
   links point straight at node records, so constructing an ephemeral
   node is ONE 14-word block — no per-node [Node of node] wrapper, no
   version box — and traversal follows one pointer per child instead of
   two. *)

type tree = node

and node = {
  key : Key.t;
  meta : int;
  vn_a : int;
  vn_b : int;
  left : tree;
  right : tree;
  cv_a : int;
  cv_b : int;
  payload : Payload.t;
  ssv_a : int;
  ssv_b : int;
  scv_a : int;
  scv_b : int;
}

let state_owner = -1

module Meta = struct
  (* The low three bits deliberately equal the wire flag byte's low bits
     (Codec), so encode is [meta land 0x7] and decode ORs the wire flags
     straight in. *)
  let altered = 0x01
  let dep_content = 0x02
  let dep_structure = 0x04
  let has_writes = 0x08
  let ssv_present = 0x10
  let ssv_ephemeral = 0x20
  let scv_present = 0x40
  let scv_ephemeral = 0x80
  let vn_ephemeral = 0x100
  let cv_ephemeral = 0x200
  let flags_mask = 0x3ff

  let dependent_mask = altered lor dep_content lor dep_structure
  let source_mask = ssv_present lor ssv_ephemeral lor scv_present lor scv_ephemeral

  (* Flag bits that survive [Intention.assign]'s owner rewrite: everything
     but [has_writes], recomputed against the new owner, and the vn class,
     since the new vn is logged. *)
  let carry_mask = flags_mask land lnot (has_writes lor vn_ephemeral)

  (* Class moves between the version slots are shifts: vn (bit 8) to
     ssv (bit 5), cv (bit 9) to scv (bit 7). *)
  let[@inline] ssv_of_vn meta = ssv_present lor ((meta land vn_ephemeral) lsr 3)
  let[@inline] scv_of_cv meta = scv_present lor ((meta land cv_ephemeral) lsr 2)
  let[@inline] sources_of meta = ssv_of_vn meta lor scv_of_cv meta

  (* Owner (a log position, or [state_owner]) in the bits above the flags,
     biased by one so state nodes have zero owner bits. *)
  let owner_shift = 10
  let owner_mask = -1 lsl owner_shift
  let owner_bits owner = (owner + 1) lsl owner_shift
  let owner_of meta = (meta asr owner_shift) - 1

  (* [meta land hw_mask = owner_bits o lor has_writes] tests "same owner
     and has writes" in one compare. *)
  let hw_mask = owner_mask lor has_writes
end

(* The empty sentinel.  [meta = 0] can never satisfy a same-owner
   has-writes test ([hw_mask] compares always carry the has_writes bit),
   so [pack]'s child summaries need no emptiness branch.  Its fields are
   never otherwise read: every traversal stops on [t == empty]. *)
let rec empty =
  {
    key = 0;
    meta = 0;
    vn_a = min_int;
    vn_b = 0;
    left = empty;
    right = empty;
    cv_a = min_int;
    cv_b = 0;
    payload = Payload.tombstone;
    ssv_a = 0;
    ssv_b = 0;
    scv_a = 0;
    scv_b = 0;
  }

let[@inline] is_empty t = t == empty

(* Low-level constructor over the packed representation.  [meta] supplies
   the flag, class and owner bits; the [has_writes] bit is recomputed here
   from the other bits and the same-owner children, so callers never carry
   it across structural edits. *)
let pack ~key ~payload ~left ~right ~vn_a ~vn_b ~cv_a ~cv_b ~meta ~ssv_a
    ~ssv_b ~scv_a ~scv_b =
  let obh = (meta land Meta.owner_mask) lor Meta.has_writes in
  let hw =
    meta land Meta.altered <> 0
    || meta land Meta.ssv_present = 0
    || left.meta land Meta.hw_mask = obh
    || right.meta land Meta.hw_mask = obh
  in
  let meta =
    if hw then meta lor Meta.has_writes else meta land lnot Meta.has_writes
  in
  { key; meta; vn_a; vn_b; left; right; cv_a; cv_b; payload;
    ssv_a; ssv_b; scv_a; scv_b }

(* Flag accessors. *)
let owner n = Meta.owner_of n.meta
let altered n = n.meta land Meta.altered <> 0
let depends_on_content n = n.meta land Meta.dep_content <> 0
let depends_on_structure n = n.meta land Meta.dep_structure <> 0
let has_writes n = n.meta land Meta.has_writes <> 0
let has_ssv n = n.meta land Meta.ssv_present <> 0
let has_scv n = n.meta land Meta.scv_present <> 0

(* Boxed views of the version words — cold paths only (error messages,
   digests, tests); the hot loops compare words. *)
let boxed ~eph a b =
  if eph then Vn.ephemeral ~thread:a ~seq:b else Vn.logged ~pos:a ~idx:b

let vn n = boxed ~eph:(n.meta land Meta.vn_ephemeral <> 0) n.vn_a n.vn_b
let cv n = boxed ~eph:(n.meta land Meta.cv_ephemeral <> 0) n.cv_a n.cv_b

let ssv n =
  if n.meta land Meta.ssv_present = 0 then None
  else Some (boxed ~eph:(n.meta land Meta.ssv_ephemeral <> 0) n.ssv_a n.ssv_b)

let scv n =
  if n.meta land Meta.scv_present = 0 then None
  else Some (boxed ~eph:(n.meta land Meta.scv_ephemeral <> 0) n.scv_a n.scv_b)

(* [n]'s ssv is [m]'s vn, and [n]'s scv is [m]'s cv: presence and class
   in one masked compare, then the two words. *)
let[@inline] ssv_equals n m =
  n.meta land (Meta.ssv_present lor Meta.ssv_ephemeral) = Meta.ssv_of_vn m.meta
  && n.ssv_a = m.vn_a && n.ssv_b = m.vn_b

let[@inline] scv_equals n m =
  n.meta land (Meta.scv_present lor Meta.scv_ephemeral) = Meta.scv_of_cv m.meta
  && n.scv_a = m.cv_a && n.scv_b = m.cv_b

(* The class bit and the two words of a boxed version. *)
let unbox (v : Vn.t) ~eph_bit =
  match v with
  | Vn.Logged { pos; idx } -> (0, pos, idx)
  | Vn.Ephemeral { thread; seq } -> (eph_bit, thread, seq)

(* Smart constructor over the unpacked field view; cold paths (tests). *)
let make ~key ~payload ~left ~right ~vn ~cv ~ssv ~scv ~altered
    ~depends_on_content ~depends_on_structure ~owner =
  let meta = Meta.owner_bits owner in
  let meta = if altered then meta lor Meta.altered else meta in
  let meta = if depends_on_content then meta lor Meta.dep_content else meta in
  let meta =
    if depends_on_structure then meta lor Meta.dep_structure else meta
  in
  let vc, vn_a, vn_b = unbox vn ~eph_bit:Meta.vn_ephemeral in
  let cc, cv_a, cv_b = unbox cv ~eph_bit:Meta.cv_ephemeral in
  let meta = meta lor vc lor cc in
  let meta, ssv_a, ssv_b =
    match ssv with
    | None -> (meta, 0, 0)
    | Some v ->
        let c, a, b = unbox v ~eph_bit:Meta.ssv_ephemeral in
        (meta lor Meta.ssv_present lor c, a, b)
  in
  let meta, scv_a, scv_b =
    match scv with
    | None -> (meta, 0, 0)
    | Some v ->
        let c, a, b = unbox v ~eph_bit:Meta.scv_ephemeral in
        (meta lor Meta.scv_present lor c, a, b)
  in
  pack ~key ~payload ~left ~right ~vn_a ~vn_b ~cv_a ~cv_b ~meta ~ssv_a ~ssv_b
    ~scv_a ~scv_b

let rec size t = if t == empty then 0 else 1 + size t.left + size t.right

let rec live_size t =
  if t == empty then 0
  else
    (if Payload.is_tombstone t.payload then 0 else 1)
    + live_size t.left + live_size t.right

let rec depth t =
  if t == empty then 0 else 1 + max (depth t.left) (depth t.right)

let pp fmt tree =
  let rec go indent t =
    if t == empty then ()
    else begin
      go (indent ^ "  ") t.right;
      Format.fprintf fmt "%s%a=%a vn=%a cv=%a%s%s%s own=%d@." indent Key.pp
        t.key Payload.pp t.payload Vn.pp (vn t) Vn.pp (cv t)
        (if altered t then " W" else "")
        (if depends_on_content t then " Rc" else "")
        (if depends_on_structure t then " Rs" else "")
        (owner t);
      go (indent ^ "  ") t.left
    end
  in
  go "" tree

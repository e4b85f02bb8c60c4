(* Flyweight intention view: the wire encoding read in place.

   [parse] makes one pass over an intention's pre-order records and keeps,
   per node, only small arrays of immediate ints (key, packed meta word,
   child descriptors, byte offset) plus the bound external references —
   no heap [Node] is built.  Each per-node field is its own array of
   [node_count] words, so an intention of up to 256 nodes (the minor
   heap's largest young block) allocates its whole index on the minor
   heap, where it dies young (DESIGN §13).  Meld walks the view through
   the accessors below and calls [materialize] only for the nodes it
   actually grafts into its output; everything else never allocates a
   node.

   External references (ref children and elided payloads) are bound as
   their record is read, against the snapshot tree the intention names —
   one step down from the parent's snapshot peer in the common case,
   falling back to the caller's resolver with exactly the eager decoder's
   integrity checks and error messages.  Because every reference is bound up front, [materialize]
   is total: it can run at any later stage, on any domain, and never
   consults a resolver or fails.

   Lifetime: a view pins its backing string (immutable, the intention's
   whole encoding) for as long as it lives.  Decode-side buffers are
   therefore never pooled — pools are for encode-side scratch only.

   Ownership: one walker at a time.  [cur] is a scratch cursor for the
   cold re-reads and the [nodes] memo is unsynchronized.  Views cross
   pipeline stage queues under one rule: whoever pushes an intention
   onto a queue never touches it or its view again.  The queue's
   publication orders the pusher's last access before the popper's
   first, so a view is never walked concurrently. *)

open Hyder_tree
module Wire = Hyder_util.Wire
module Prefetch = Hyder_util.Prefetch

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type resolver = snapshot:int -> key:Key.t -> vn:Vn.t -> Node.tree

(* Child descriptor codes in [kid_ls]/[kid_rs]: [>= 0] inside node index,
   [-1] empty, [<= -2] bound external reference in slot [-c - 2]. *)
let kid_empty = -1
let[@inline] kid_is_inside c = c >= 0
let[@inline] kid_is_empty c = c = -1
let[@inline] kid_slot c = -c - 2

(* Physically-unique sentinel marking an unmaterialized payload slot; the
   block identity is what matters, the contents are never read. *)
let unbound : Payload.t = Payload.Value (String.make 1 '\255')

(* ---- cursor ----------------------------------------------------------- *)
(* The parse and the cold re-readers read through one mutable cursor with
   top-level readers, so a byte costs an inlined bounds check and a field
   store — no closure call, no boxed position.  Semantics are
   [Wire.Reader]'s: the same [Truncated] condition before every byte, and
   [uint] matches [Int64.to_int (Wire.Reader.varint64 r)] exactly,
   including the modulo-2^63 wrap (the shift-63 group can only contribute
   bit 63, which [Int64.to_int] drops, so it is read and skipped rather
   than shifted — an [lsl] by 63 is unspecified on 63-bit ints). *)

type cursor = { src : string; limit : int; mutable at : int }

let[@inline] u8 c =
  let p = c.at in
  if p >= c.limit then raise Wire.Truncated;
  c.at <- p + 1;
  Char.code (String.unsafe_get c.src p)

(* The rest of the varint from offset [p] on, [x] holding the groups
   below [shift] already read. *)
let uint_loop c p x shift =
  let s = c.src and limit = c.limit in
  let x = ref x and shift = ref shift and p = ref p in
  let continue = ref true in
  while !continue do
    if !shift > 63 || !p >= limit then raise Wire.Truncated;
    let b = Char.code (String.unsafe_get s !p) in
    incr p;
    if !shift < 63 then x := !x lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then continue := false
  done;
  c.at <- !p;
  !x

(* A varint of two or more bytes at [c.at].  Keys, log positions and
   most version words are two or three bytes, so those lengths are
   unrolled behind one bounds test; a varint within three bytes of the
   buffer's end, or longer than three, takes the loop. *)
let uint_multi c =
  let s = c.src and p = c.at in
  if p + 3 > c.limit then uint_loop c p 0 0
  else begin
    let b0 = Char.code (String.unsafe_get s p) in
    let b1 = Char.code (String.unsafe_get s (p + 1)) in
    let x = b0 land 0x7F lor ((b1 land 0x7F) lsl 7) in
    if b1 < 0x80 then begin
      c.at <- p + 2;
      x
    end
    else
      let b2 = Char.code (String.unsafe_get s (p + 2)) in
      if b2 < 0x80 then begin
        c.at <- p + 3;
        x lor (b2 lsl 14)
      end
      else uint_loop c (p + 3) (x lor ((b2 land 0x7F) lsl 14)) 21
  end

(* Single-byte fast path inline: most wire integers (child indexes,
   version counters, payload lengths) fit in seven bits. *)
let[@inline] uint c =
  let p = c.at in
  if p >= c.limit then raise Wire.Truncated;
  let b = Char.code (String.unsafe_get c.src p) in
  if b < 0x80 then begin
    c.at <- p + 1;
    b
  end
  else uint_multi c

(* [uint] over a fresh cursor at [p]: the value and the offset past it. *)
let uint_at s p =
  let c = { src = s; limit = String.length s; at = p } in
  let x = uint c in
  (x, c.at)

(* Zigzag decode over that 63-bit wrap.  Encoder output never sets bit 63
   (the zigzag of a 63-bit int fits in 63 bits), so this agrees with the
   eager decoder's Int64 path on every buffer the encoder can emit. *)
let[@inline] unzigzag u = u lsr 1 lxor -(u land 1)
let[@inline] zint c = unzigzag (uint c)

let[@inline] skip c n =
  if n < 0 || n > c.limit - c.at then raise Wire.Truncated;
  c.at <- c.at + n

(* A source version's tag, validated; [true] for an ephemeral one. *)
let[@inline] vn_tag c =
  match u8 c with 0 -> false | 1 -> true | tag -> corrupt "bad VN tag %d" tag

(* Read past one source version's words, validating them; its class. *)
let skip_vn c =
  let eph = vn_tag c in
  ignore (if eph then uint c else zint c);
  ignore (uint c);
  eph

(* The header's first varint, read as [uint] would but without a cursor:
   the cursor is a heap record, and this runs several times per intention
   on the scheduling path, where it must not allocate. *)
let peek_snapshot s =
  let limit = String.length s in
  let x = ref 0 and shift = ref 0 and p = ref 0 and continue = ref true in
  try
    while !continue do
      if !shift > 63 || !p >= limit then raise Wire.Truncated;
      let b = Char.code (String.unsafe_get s !p) in
      incr p;
      if !shift < 63 then x := !x lor ((b land 0x7F) lsl !shift);
      shift := !shift + 7;
      if b < 0x80 then continue := false
    done;
    unzigzag !x
  with Wire.Truncated -> corrupt "truncated intention header"

type t = {
  pos : int;
  snapshot : int;
  server : int;
  txn_seq : int;
  isolation : int;  (** wire code 0..2; [Codec] converts *)
  node_count : int;
  byte_size : int;
  cur : cursor;
      (** over the backing buffer, read in place (never pooled); the
          scratch position for cold re-reads (single walker) *)
  keys : int array;
  metas : int array;  (** packed meta words, [Node.pack]'s *)
  kid_ls : int array;  (** child descriptors *)
  kid_rs : int array;
  offs : int array;  (** absolute offset of each node's flags byte *)
  refs : Node.tree array;  (** bound external references, by slot *)
  pays : Payload.t array;  (** payload memo; [unbound] until forced *)
  mutable nodes : Node.tree array;
      (** materialization memo; empty until first use *)
}

let pos v = v.pos
let snapshot v = v.snapshot
let server v = v.server
let txn_seq v = v.txn_seq
let isolation_code v = v.isolation
let node_count v = v.node_count
let byte_size v = v.byte_size
let root_index v = v.node_count - 1
let[@inline] key v idx = Array.unsafe_get v.keys idx
let[@inline] meta v idx = Array.unsafe_get v.metas idx
let[@inline] kid_l v idx = Array.unsafe_get v.kid_ls idx
let[@inline] kid_r v idx = Array.unsafe_get v.kid_rs idx
let[@inline] ref_of v c = Array.unsafe_get v.refs (-c - 2)
let[@inline] vn v idx = Vn.logged ~pos:v.pos ~idx

(* ---- cold re-reads off the wire bytes -------------------------------- *)
(* The parse below validated the whole encoding, so these re-readers only
   revisit byte ranges it read; the cursor's checks never fire here. *)

let[@inline] flags v idx = Char.code (String.unsafe_get v.cur.src v.offs.(idx))

(* Position the cursor at the node's source-version section (after the
   flags byte and any inline payload); returns the wire flags. *)
let seek_sources v idx =
  let f = flags v idx in
  let c = v.cur in
  c.at <- v.offs.(idx) + 1;
  if f land (32 lor 64) = 0 then skip c (uint c);
  f

(* The version words at the cursor, past their tag, equal [(a, b)]; the
   caller has matched the class bit already. *)
let words_equal c ~eph a b =
  c.at <- c.at + 1;
  let x = if eph then uint c else zint c in
  x = a && uint c = b

(* Mirrors [Node.ssv_equals] over the packed wire words: presence and
   value class come from the meta word, the version words are re-read in
   place.  No allocation — this runs once per meld visit. *)
let ssv_equals v idx (m : Node.node) =
  let cls = Node.Meta.ssv_of_vn m.meta in
  meta v idx land (Node.Meta.ssv_present lor Node.Meta.ssv_ephemeral) = cls
  &&
  (ignore (seek_sources v idx);
   words_equal v.cur ~eph:(cls land Node.Meta.ssv_ephemeral <> 0) m.vn_a
     m.vn_b)

let seek_scv v idx =
  if seek_sources v idx land 8 <> 0 then ignore (skip_vn v.cur)

let scv_equals v idx (m : Node.node) =
  let cls = Node.Meta.scv_of_cv m.meta in
  meta v idx land (Node.Meta.scv_present lor Node.Meta.scv_ephemeral) = cls
  &&
  (seek_scv v idx;
   words_equal v.cur ~eph:(cls land Node.Meta.scv_ephemeral <> 0) m.cv_a
     m.cv_b)

let vn_at c =
  let eph = u8 c = 1 in
  let a = if eph then uint c else zint c in
  let b = uint c in
  if eph then Vn.ephemeral ~thread:a ~seq:b else Vn.logged ~pos:a ~idx:b

(* Packed source-version words, exactly as the eager decoder stores them
   ([0, 0] when absent).  One tuple of immediates — callers are
   node-construction paths that allocate anyway. *)
let sources v idx =
  let f = seek_sources v idx in
  let c = v.cur in
  let ssv_a, ssv_b =
    if f land 8 <> 0 then begin
      let eph = u8 c = 1 in
      let a = if eph then uint c else zint c in
      (a, uint c)
    end
    else (0, 0)
  in
  let scv_a, scv_b =
    if f land 16 <> 0 then begin
      let eph = u8 c = 1 in
      let a = if eph then uint c else zint c in
      (a, uint c)
    end
    else (0, 0)
  in
  (ssv_a, ssv_b, scv_a, scv_b)

let payload v idx =
  let p = v.pays.(idx) in
  if p != unbound then p
  else begin
    let f = flags v idx in
    let p =
      if f land 32 <> 0 then Payload.Tombstone
      else begin
        (* elided slots (flag bit 64) were bound during the parse, so only
           an inline wire payload can still be unbound here *)
        let c = v.cur in
        c.at <- v.offs.(idx) + 1;
        let len = uint c in
        Payload.Value (String.sub c.src c.at len)
      end
    in
    v.pays.(idx) <- p;
    p
  end

(* Option view of the ssv — cold paths only (corrupt-intention reports). *)
let ssv v idx =
  if meta v idx land Node.Meta.ssv_present = 0 then None
  else begin
    ignore (seek_sources v idx);
    Some (vn_at v.cur)
  end

(* ---- materialization -------------------------------------------------- *)

let rec materialize v idx =
  if Array.length v.nodes = 0 then
    v.nodes <- Array.make (max 1 v.node_count) Node.empty;
  let n = v.nodes.(idx) in
  if n != Node.empty then n
  else begin
    let key = v.keys.(idx) and meta = v.metas.(idx) in
    let left = mat_kid v v.kid_ls.(idx) in
    let right = mat_kid v v.kid_rs.(idx) in
    let payload = payload v idx in
    let ssv_a, ssv_b, scv_a, scv_b = sources v idx in
    (* vn := (pos, idx); cv as the eager decoder computes it: an altered
       node's is its vn, an unaltered one's its scv (whose presence the
       parse enforced) *)
    let n =
      if meta land Node.Meta.altered <> 0 then
        Node.pack ~key ~payload ~left ~right ~vn_a:v.pos ~vn_b:idx
          ~cv_a:v.pos ~cv_b:idx ~meta ~ssv_a ~ssv_b ~scv_a ~scv_b
      else
        Node.pack ~key ~payload ~left ~right ~vn_a:v.pos ~vn_b:idx
          ~cv_a:scv_a ~cv_b:scv_b ~meta ~ssv_a ~ssv_b ~scv_a ~scv_b
    in
    v.nodes.(idx) <- n;
    n
  end

and mat_kid v c =
  if c >= 0 then materialize v c
  else if c = kid_empty then Node.empty
  else v.refs.(-c - 2)

let materialize_root v =
  if v.node_count = 0 then Node.empty else materialize v (v.node_count - 1)

(* ---- parse + bind ----------------------------------------------------- *)

(* BST descent to the unique same-key node of the snapshot tree — the
   same physical object the eager decoder's state-first resolver returns. *)
let rec find_peer (p : Node.tree) (k : Key.t) =
  if p == Node.empty || k = p.key then p
  else if k < p.key then find_peer p.left k
  else find_peer p.right k

(* [n]'s vn is the wire version [(a, b)] of class [eph]. *)
let[@inline] vn_matches (n : Node.node) ~eph ~a ~b =
  (n.meta land Node.Meta.vn_ephemeral <> 0) = eph && n.vn_a = a && n.vn_b = b

(* Does child [c] carry this intention's writes ([obh]: its owner bits
   plus has-writes)?  Empty kids never do, and neither do refs: a ref
   resolves to a node owned by an earlier log position, so its owner bits
   can never equal this intention's (the eager decoder computes the same
   test against the resolved node and always gets false). *)
let[@inline] kid_hw metas obh c =
  c >= 0 && Array.unsafe_get metas c land Node.Meta.hw_mask = obh

(* One pass over the pre-order records: validate the whole encoding (the
   eager decoder's checks, in its order, with its messages), record
   per-node offsets and packed meta words, and bind every external
   reference and elided payload as its record is read.  Bytes are read
   through the cursor above, never [Wire.Reader]: a cross-module call
   per byte plus a boxed [Int64] fold per varint were the bulk of the
   old ds bracket.

   A record comes right after its parent's, so the walk threads each
   node's snapshot peer down the tree: a node's same-key peer is searched
   inside its parent's peer's matching child — depth 0 in the aligned
   common case — so binding costs O(1) tree touches per node instead of a
   root descent per reference.  A miss (a key the snapshot lacks, a
   rotation near an altered node, or a dishonestly shaped buffer) falls
   through to [resolve], which is all the eager decoder ever uses, with
   its integrity checks and messages; [peer] is [Node.empty] when the
   snapshot tree is unavailable. *)
let parse ~pos ~peer ~(resolve : resolver) s =
  let len = String.length s in
  let c = { src = s; limit = len; at = 0 } in
  let nrefs = ref 0 in
  try
    let snapshot = zint c in
    let server = uint c in
    let txn_seq = uint c in
    let isolation = u8 c in
    if isolation > 2 then corrupt "bad isolation %d" isolation;
    let node_count = uint c in
    if node_count < 0 || node_count > len then
      corrupt "implausible node count %d" node_count;
    let keys = Array.make node_count 0 in
    let metas = Array.make node_count 0 in
    let kid_ls = Array.make node_count 0 in
    let kid_rs = Array.make node_count 0 in
    let offs = Array.make (max 1 node_count) 0 in
    let pays = Array.make (max 1 node_count) unbound in
    (* Bound references are staged here until their number is known; a
       binary tree of [n] inside nodes has [n + 1] outside child slots.
       Up to 255 nodes the stage is a young block, like the index arrays
       above, so its stores skip the write barrier's slow path and it
       dies in the next minor collection. *)
    let refs = Array.make (node_count + 1) Node.empty in
    let ob = Node.Meta.owner_bits pos in
    let obh = ob lor Node.Meta.has_writes in
    let records = ref 0 and next_idx = ref 0 in
    let bind_elided key m ~eph ~a ~b =
      if m != Node.empty && vn_matches m ~eph ~a ~b then m.Node.payload
      else begin
        let source_vn =
          if eph then Vn.ephemeral ~thread:a ~seq:b
          else Vn.logged ~pos:a ~idx:b
        in
        let m = resolve ~snapshot ~key ~vn:source_vn in
        if m == Node.empty then
          corrupt "elided payload: key %d missing from snapshot" key
        else if not (vn_matches m ~eph ~a ~b) then
          corrupt "elided payload: source of key %d is version %s" key
            (Vn.to_string (Node.vn m));
        m.Node.payload
      end
    in
    (* One child descriptor, read and bound against [sub], the peer
       subtree on its side: [kid_empty], a bound reference's code, or
       [0] for an inside child, whose record comes next. *)
    let read_kid sub =
      match u8 c with
      | 0 -> kid_empty
      | 1 -> 0
      | 2 ->
          let eph = vn_tag c in
          let a = if eph then uint c else zint c in
          let b = uint c in
          let key = zint c in
          (* [find_peer]'s first test, inline: a reference usually
             names the peer subtree's root itself *)
          let n0 =
            if sub == Node.empty || key = sub.Node.key then sub
            else find_peer sub key
          in
          let n =
            if n0 != Node.empty && vn_matches n0 ~eph ~a ~b then n0
            else begin
              let x =
                if eph then Vn.ephemeral ~thread:a ~seq:b
                else Vn.logged ~pos:a ~idx:b
              in
              let resolved = resolve ~snapshot ~key ~vn:x in
              if resolved == Node.empty then
                corrupt "unresolvable reference to key %d" key
              else if not (vn_matches resolved ~eph ~a ~b) then
                corrupt "reference to key %d resolved to wrong version" key;
              resolved
            end
          in
          let slot = !nrefs in
          refs.(slot) <- n;
          nrefs := slot + 1;
          -slot - 2
      | tag -> corrupt "bad child tag %d" tag
    in
    (* One record under the peer subtree [sub], then its inside
       subtrees; returns the node's post-order index. *)
    let rec node sub =
      if !records = node_count then
        corrupt "node count %d does not match the records" node_count;
      incr records;
      let key = zint c in
      let off = c.at in
      let flags = u8 c in
      if flags land (32 lor 64) = 0 then skip c (uint c);
      let has_ssv = flags land 8 <> 0 in
      let ssv_eph = has_ssv && vn_tag c in
      let ssv_a = if not has_ssv then 0 else if ssv_eph then uint c else zint c in
      let ssv_b = if has_ssv then uint c else 0 in
      let has_scv = flags land 16 <> 0 in
      let scv_eph = has_scv && skip_vn c in
      let m =
        if sub == Node.empty || key = sub.Node.key then sub
        else find_peer sub key
      in
      (* Both of the peer's children are read next: one by this record's
         left descriptor or its left subtree's first record, the other
         only after that whole subtree.  Start both loads now so the
         misses overlap instead of queueing. *)
      Prefetch.block m.Node.left;
      Prefetch.block m.Node.right;
      let pay =
        if flags land (32 lor 64) <> 64 then unbound
        else if not has_ssv then
          corrupt "elided payload on a node without a source"
        else bind_elided key m ~eph:ssv_eph ~a:ssv_a ~b:ssv_b
      in
      let sub_l = if m == Node.empty then sub else m.Node.left in
      let sub_r = if m == Node.empty then sub else m.Node.right in
      let kl = read_kid sub_l in
      let kr = read_kid sub_r in
      if flags land 1 = 0 && not has_scv then
        corrupt "unaltered node %d lacks a content version" key;
      let kl = if kl >= 0 then node sub_l else kl in
      let kr = if kr >= 0 then node sub_r else kr in
      let idx = !next_idx in
      next_idx := idx + 1;
      let meta =
        ob lor (flags land 0x7)
        lor (if has_ssv then
               if ssv_eph then Node.Meta.ssv_present lor Node.Meta.ssv_ephemeral
               else Node.Meta.ssv_present
             else 0)
        lor (if has_scv then
               if scv_eph then Node.Meta.scv_present lor Node.Meta.scv_ephemeral
               else Node.Meta.scv_present
             else 0)
        (* the cv class: an unaltered node's cv is its scv *)
        lor (if flags land 1 = 0 && scv_eph then Node.Meta.cv_ephemeral
             else 0)
        (* bottom-up [Node.pack] has-writes rule: the children were
           numbered first, so their meta words are already final *)
        lor
        if flags land 1 <> 0 || (not has_ssv) || kid_hw metas obh kl
           || kid_hw metas obh kr
        then Node.Meta.has_writes
        else 0
      in
      keys.(idx) <- key;
      metas.(idx) <- meta;
      kid_ls.(idx) <- kl;
      kid_rs.(idx) <- kr;
      offs.(idx) <- off;
      pays.(idx) <- pay;
      idx
    in
    (* the eager decoder's two-way check of the header count *)
    if c.at < len then ignore (node peer);
    if !records <> node_count then
      corrupt "node count %d does not match the records" node_count;
    if c.at <> len then corrupt "trailing bytes";
    let refs = Array.sub refs 0 !nrefs in
    {
      pos;
      snapshot;
      server;
      txn_seq;
      isolation;
      node_count;
      byte_size = len;
      cur = c;
      keys;
      metas;
      kid_ls;
      kid_rs;
      offs;
      refs;
      pays;
      nodes = [||];
    }
  with Wire.Truncated -> corrupt "truncated intention"

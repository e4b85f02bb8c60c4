open Hyder_tree
open Node
module Wire = Hyder_util.Wire
module Crc32 = Hyder_util.Crc32
module Prefetch = Hyder_util.Prefetch

(* Raised by the decoder and by encode alike, so callers catch one
   constructor. *)
exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let isolation_to_int = function
  | Intention.Serializable -> 0
  | Intention.Snapshot_isolation -> 1
  | Intention.Read_committed -> 2

let isolation_of_int = function
  | 0 -> Intention.Serializable
  | 1 -> Intention.Snapshot_isolation
  | 2 -> Intention.Read_committed
  | i -> corrupt "bad isolation %d" i

(* Child descriptor tags. *)
let tag_empty = 0
let tag_inside = 1
let tag_ref = 2

(* ---- encoder ----------------------------------------------------------- *)
(* Each node reserves its worst-case size once, then is written with
   unchecked stores through the position-returning helpers below: no grow
   check and no cross-module call per byte.

   Worst case of one node, besides its payload bytes.  A varint is at
   most 10 bytes (ceil (64 / 7); a 63-bit int needs only 9, the bound
   does not rely on it):
     key                                      10
     flags                                     1
     payload length prefix                    10
     ssv, scv: tag 1 + two varints 20     2 x 21
     left, right: tag 1 + ref VN 21 + key 10  2 x 32
                                             ---
                                             127 *)
let node_bound = 127

(* The header — snapshot, server, txn_seq (varints), isolation (a byte),
   node count (varint) — is written after the body, once the count is
   known, into a gap of its worst-case size in front of it. *)
let header_bound = 10 + 10 + 10 + 1 + 10

let[@inline] put_u8 buf p v =
  Bytes.unsafe_set buf p (Char.unsafe_chr v);
  p + 1

(* LEB128 over [v] read as an unsigned 63-bit word. *)
let rec put_varint buf p v =
  if v land lnot 0x7F = 0 then put_u8 buf p v
  else put_varint buf (put_u8 buf p (v land 0x7F lor 0x80)) (v lsr 7)

let[@inline] put_uint buf p v =
  if v < 0 then invalid_arg "Codec.encode: negative varint";
  put_varint buf p v

(* Zigzag of the int sign-extended to 64 bits.  Its bit 63 is always
   clear, so the low 63 bits, computed natively, are the whole value:
   the same bytes as the [Int64] mapping, with no boxing at any
   magnitude. *)
let[@inline] put_zint buf p v = put_varint buf p ((v lsl 1) lxor (v asr 62))

(* A version from its two words: [(pos, idx)] of a logged one, after tag
   0, or [(thread, seq)] of an ephemeral one, after tag 1. *)
let put_vn_parts buf p ~eph ~a ~b =
  if eph then put_uint buf (put_uint buf (put_u8 buf p 1) a) b
  else put_uint buf (put_zint buf (put_u8 buf p 0) a) b

let draft_bits = Meta.owner_bits Intention.draft_owner
let[@inline] is_draft (n : Node.tree) =
  n != Node.empty && n.meta land Meta.owner_mask = draft_bits

(* An inside child is the bare tag: its record follows its parent's. *)
let put_kid buf p (c : Node.tree) =
  if is_draft c then put_u8 buf p tag_inside
  else if c == Node.empty then put_u8 buf p tag_empty
  else
    put_zint buf
      (put_vn_parts buf (put_u8 buf p tag_ref)
         ~eph:(c.meta land Meta.vn_ephemeral <> 0) ~a:c.vn_a ~b:c.vn_b)
      c.key

(* A growable buffer the encoder owns and reuses across encodes, so the
   steady state allocates only the result string. *)
type encoder = {
  mutable buf : Bytes.t;
  mutable len : int;  (** bytes written, header gap included *)
  mutable nodes : int;  (** records written *)
}

let grow e need =
  let cap = ref (max 16 (2 * Bytes.length e.buf)) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let bigger = Bytes.create !cap in
  Bytes.blit e.buf 0 bigger 0 e.len;
  e.buf <- bigger

let[@inline] reserve e n = if e.len + n > Bytes.length e.buf then grow e (e.len + n)

(* Pre-order: a draft node's record, then its left inside subtree's
   records, then its right one's.  A decoder reads a record right after
   its parent's, so it can bind the record's references against the
   parent's snapshot peer in the same pass (DESIGN §13).  Node
   identities stay post-order: the decoder numbers each node as its walk
   returns, so no index is written here. *)
let rec put_node e (n : Node.tree) =
  if is_draft n then begin
    let m = n.meta in
    (* An unaltered node's payload equals its source version's, so it is
       not shipped: the decoder recovers it through ssv.  This is what
       keeps serializable-isolation intentions metadata-sized despite
       carrying the whole readset (Section 6.4.4). *)
    let elide = m land Meta.altered = 0 && m land Meta.ssv_present <> 0 in
    let tomb = match n.payload with Payload.Tombstone -> true | _ -> false in
    (* An elided payload's string is never touched: it belongs to the
       snapshot and is usually cold. *)
    let plen =
      match n.payload with
      | Payload.Value s when not elide -> String.length s
      | _ -> 0
    in
    (* The low three meta bits are the low three wire flag bits. *)
    let flags =
      m land 0x7
      lor (if m land Meta.ssv_present <> 0 then 8 else 0)
      lor (if m land Meta.scv_present <> 0 then 16 else 0)
      lor (if tomb then 32 else 0)
      lor if elide then 64 else 0
    in
    reserve e (node_bound + plen);
    let buf = e.buf in
    let p = put_u8 buf (put_zint buf e.len n.key) flags in
    let p =
      match n.payload with
      | Payload.Value s when not elide ->
          let p = put_uint buf p plen in
          Bytes.unsafe_blit_string s 0 buf p plen;
          p + plen
      | _ -> p
    in
    let p =
      if m land Meta.ssv_present = 0 then p
      else
        put_vn_parts buf p ~eph:(m land Meta.ssv_ephemeral <> 0) ~a:n.ssv_a
          ~b:n.ssv_b
    in
    let p =
      if m land Meta.scv_present = 0 then p
      else
        put_vn_parts buf p ~eph:(m land Meta.scv_ephemeral <> 0) ~a:n.scv_a
          ~b:n.scv_b
    in
    e.len <- put_kid buf (put_kid buf p n.left) n.right;
    e.nodes <- e.nodes + 1;
    put_node e n.left;
    put_node e n.right
  end

(* The snapshot position is deliberately the FIRST field: schedulers can
   tell from one varint whether an intention's references resolve against
   already-recorded state (see [peek_snapshot]) without decoding it.  The
   node count that follows the header lets the decoder size its index
   table. *)
let encode_with e (d : Intention.draft) =
  e.len <- header_bound;
  e.nodes <- 0;
  reserve e 0;
  put_node e d.root;
  if e.nodes = 0 && d.root != Node.empty then
    (* Empty intention trees (pure read-only txns under SI produce no
       nodes) are legal; a non-draft root is not. *)
    corrupt "intention root is not a draft node";
  let buf = e.buf in
  let p = put_uint buf (put_uint buf (put_zint buf 0 d.snapshot) d.server) d.txn_seq in
  let h = put_uint buf (put_u8 buf p (isolation_to_int d.isolation)) e.nodes in
  let body = e.len - header_bound in
  let out = Bytes.create (h + body) in
  Bytes.blit buf 0 out 0 h;
  Bytes.blit buf header_bound out h body;
  Bytes.unsafe_to_string out

module Encoder = struct
  type t = encoder

  let create () = { buf = Bytes.create 8192; len = 0; nodes = 0 }
  let encode = encode_with
end

let encode d = encode_with (Encoder.create ()) d
let encoded_size d = String.length (encode d)

(* ---- decoder ----------------------------------------------------------- *)
(* The decoder reads through one mutable cursor with top-level readers, so
   a byte costs an inlined bounds check and a field store — no closure
   call, no boxed position.  Semantics are [Wire.Reader]'s: the same
   [Truncated] condition before every byte, and [uint] matches
   [Int64.to_int (Wire.Reader.varint64 r)] exactly, including the
   modulo-2^63 wrap (the shift-63 group can only contribute bit 63, which
   [Int64.to_int] drops, so it is read and skipped rather than shifted —
   an [lsl] by 63 is unspecified on 63-bit ints). *)

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

let uint_at s p =
  let c = { src = s; limit = String.length s; at = p } in
  let x = uint c in
  (x, c.at)

(* Zigzag decode over that 63-bit wrap.  Encoder output never sets bit 63
   (the zigzag of a 63-bit int fits in 63 bits), so this agrees with the
   [Int64] mapping on every buffer the encoder can emit. *)
let[@inline] unzigzag u = u lsr 1 lxor -(u land 1)
let[@inline] zint c = unzigzag (uint c)

let[@inline] skip c n =
  if n < 0 || n > c.limit - c.at then raise Wire.Truncated;
  c.at <- c.at + n

(* A source version's tag, validated; [true] for an ephemeral one. *)
let[@inline] vn_tag c =
  match u8 c with 0 -> false | 1 -> true | tag -> corrupt "bad VN tag %d" tag

(* The header's first varint, read as [uint] would but without a cursor:
   the cursor is a heap record, and this runs on the scheduling path,
   where it must not allocate. *)
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

type resolver = snapshot:int -> key:Key.t -> vn:Vn.t -> Node.tree

(* BST descent to the unique same-key node of the snapshot tree — the
   same physical object a resolver over that tree returns. *)
let rec find_peer (p : Node.tree) (k : Key.t) =
  if p == Node.empty || k = p.key then p
  else if k < p.key then find_peer p.left k
  else find_peer p.right k

(* [n]'s vn is the wire version [(a, b)] of class [eph]. *)
let[@inline] vn_matches (n : Node.node) ~eph ~a ~b =
  (n.meta land Meta.vn_ephemeral <> 0) = eph && n.vn_a = a && n.vn_b = b

(* What [read_kid] returns for an inside child, whose record comes next:
   a block of its own, so no real node is ever physically equal to it. *)
let inside_kid : Node.tree = { Node.empty with key = 0 }

(* One pass over the pre-order records: validate the encoding, bind every
   external reference and elided payload as its record is read, and build
   each node with [Node.pack] as the walk returns, numbering it in post
   order.

   A record comes right after its parent's, so the walk threads each
   node's snapshot peer down the tree: a node's same-key peer is searched
   inside its parent's peer's matching child — depth 0 in the aligned
   common case — so binding costs O(1) tree touches per node instead of a
   root descent per reference.  A miss (a key the snapshot lacks, a
   rotation near an altered node, or a dishonestly shaped buffer) falls
   through to [resolve], with its integrity checks and messages; [peer]
   is [Node.empty] when the snapshot tree is unavailable. *)
let decode ~pos ?(peer = Node.empty) ~(resolve : resolver) s =
  let len = String.length s in
  let c = { src = s; limit = len; at = 0 } in
  try
    let snapshot = zint c in
    let server = uint c in
    let txn_seq = uint c in
    let isolation = isolation_of_int (u8 c) in
    let node_count = uint c in
    if node_count < 0 || node_count > len then
      corrupt "implausible node count %d" node_count;
    let ob = Meta.owner_bits pos in
    let records = ref 0 and next_idx = ref 0 in
    let bind_elided key m ~eph ~a ~b =
      if m != Node.empty && vn_matches m ~eph ~a ~b then m.payload
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
        m.payload
      end
    in
    (* One child descriptor, bound against [sub], the peer subtree on its
       side: [Node.empty], a bound reference, or [inside_kid]. *)
    let read_kid sub =
      match u8 c with
      | 0 -> Node.empty
      | 1 -> inside_kid
      | 2 ->
          let eph = vn_tag c in
          let a = if eph then uint c else zint c in
          let b = uint c in
          let key = zint c in
          (* [find_peer]'s first test, inline: a reference usually
             names the peer subtree's root itself *)
          let n0 =
            if sub == Node.empty || key = sub.key then sub
            else find_peer sub key
          in
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
      | tag -> corrupt "bad child tag %d" tag
    in
    (* One record under the peer subtree [sub], then its inside
       subtrees; the node itself once both are built. *)
    let rec node sub =
      if !records = node_count then
        corrupt "node count %d does not match the records" node_count;
      incr records;
      let key = zint c in
      let flags = u8 c in
      let wire_payload =
        if flags land (32 lor 64) <> 0 then Payload.Tombstone
        else begin
          let n = uint c in
          let off = c.at in
          skip c n;
          Payload.Value (String.sub s off n)
        end
      in
      let has_ssv = flags land 8 <> 0 in
      let ssv_eph = has_ssv && vn_tag c in
      let ssv_a = if not has_ssv then 0 else if ssv_eph then uint c else zint c in
      let ssv_b = if has_ssv then uint c else 0 in
      let has_scv = flags land 16 <> 0 in
      let scv_eph = has_scv && vn_tag c in
      let scv_a = if not has_scv then 0 else if scv_eph then uint c else zint c in
      let scv_b = if has_scv then uint c else 0 in
      let m =
        if sub == Node.empty || key = sub.key then sub else find_peer sub key
      in
      (* Both of the peer's children are read next: one by this record's
         left descriptor or its left subtree's first record, the other
         only after that whole subtree.  Start both loads now so the
         misses overlap instead of queueing. *)
      Prefetch.block m.left;
      Prefetch.block m.right;
      (* inline, tombstone (flag 32, whatever flag 64 says) or elided *)
      let payload =
        if flags land (32 lor 64) <> 64 then wire_payload
        else if not has_ssv then
          corrupt "elided payload on a node without a source"
        else bind_elided key m ~eph:ssv_eph ~a:ssv_a ~b:ssv_b
      in
      let sub_l = if m == Node.empty then sub else m.left in
      let sub_r = if m == Node.empty then sub else m.right in
      let left = read_kid sub_l in
      let right = read_kid sub_r in
      let altered = flags land 1 <> 0 in
      if (not altered) && not has_scv then
        corrupt "unaltered node %d lacks a content version" key;
      let left = if left == inside_kid then node sub_l else left in
      let right = if right == inside_kid then node sub_r else right in
      let idx = !next_idx in
      next_idx := idx + 1;
      let meta =
        ob lor (flags land 0x7)
        lor (if has_ssv then
               if ssv_eph then Meta.ssv_present lor Meta.ssv_ephemeral
               else Meta.ssv_present
             else 0)
        lor
        if has_scv then
          if scv_eph then Meta.scv_present lor Meta.scv_ephemeral
          else Meta.scv_present
        else 0
      in
      (* vn := (pos, idx); an altered node's cv is its vn, an unaltered
         one's is its scv *)
      if altered then
        Node.pack ~key ~payload ~left ~right ~vn_a:pos ~vn_b:idx ~cv_a:pos
          ~cv_b:idx ~meta ~ssv_a ~ssv_b ~scv_a ~scv_b
      else
        Node.pack ~key ~payload ~left ~right ~vn_a:pos ~vn_b:idx ~cv_a:scv_a
          ~cv_b:scv_b
          ~meta:(if scv_eph then meta lor Meta.cv_ephemeral else meta)
          ~ssv_a ~ssv_b ~scv_a ~scv_b
    in
    (* The header count is checked against the records in both
       directions: a record past it fails in [node], too few fail here. *)
    let root = if c.at < len then node peer else Node.empty in
    if !records <> node_count then
      corrupt "node count %d does not match the records" node_count;
    if c.at <> len then corrupt "trailing bytes";
    {
      Intention.pos;
      snapshot;
      server;
      txn_seq;
      isolation;
      root;
      node_count;
      byte_size = len;
    }
  with Wire.Truncated -> corrupt "truncated intention"

module Blocks = struct
  (* Framing: crc32 | server | txn_seq | frag_idx | last flag | payload. *)
  let overhead = 4 + 10 + 10 + 10 + 1 + 10

  let split ~block_size ~server ~txn_seq s =
    if block_size <= overhead then invalid_arg "Codec.Blocks.split: tiny block";
    let chunk = block_size - overhead in
    let total = String.length s in
    let nfrags = max 1 ((total + chunk - 1) / chunk) in
    List.init nfrags (fun i ->
        let off = i * chunk in
        let len = min chunk (total - off) in
        let body = Wire.Writer.create ~capacity:(len + 32) () in
        Wire.Writer.varint body server;
        Wire.Writer.varint body txn_seq;
        Wire.Writer.varint body i;
        Wire.Writer.u8 body (if i = nfrags - 1 then 1 else 0);
        Wire.Writer.substring body s ~pos:off ~len;
        let payload = Wire.Writer.contents body in
        let framed =
          Wire.Writer.create ~capacity:(String.length payload + 4) ()
        in
        Wire.Writer.u32 framed (Crc32.digest_string payload);
        Wire.Writer.raw framed
          (Bytes.unsafe_of_string payload)
          ~pos:0 ~len:(String.length payload);
        Wire.Writer.contents framed)

  let blocks_needed ~block_size size =
    let chunk = block_size - overhead in
    max 1 ((size + chunk - 1) / chunk)

  (* Check one block's checksum and framing; raises [Corrupt], touches
     no state. *)
  let unframe ~pos block =
    let r = Wire.Reader.of_string block in
    try
      let crc = Wire.Reader.u32 r in
      let body_off = Wire.Reader.pos r in
      let body_len = String.length block - body_off in
      let actual =
        Crc32.digest (Bytes.unsafe_of_string block) ~pos:body_off ~len:body_len
      in
      if not (Int32.equal crc actual) then
        corrupt "block %d checksum mismatch" pos;
      let server = Wire.Reader.varint r in
      let txn_seq = Wire.Reader.varint r in
      let frag_idx = Wire.Reader.varint r in
      let last = Wire.Reader.u8 r = 1 in
      let payload = Wire.Reader.bytes r in
      ((server, txn_seq), frag_idx, last, payload)
    with Wire.Truncated -> corrupt "block %d truncated" pos

  let verify ~pos block = ignore (unframe ~pos block)

  module Reassembler = struct
    (* Each partial is its fragments' payloads, newest first; being
       immutable, [copy] is a shallow table copy. *)
    type t = { partials : (int * int, string list) Hashtbl.t }

    let create () = { partials = Hashtbl.create 64 }
    let copy t = { partials = Hashtbl.copy t.partials }

    let feed t ~pos block =
      let key, frag_idx, last, payload = unframe ~pos block in
      let rev_payloads =
        Option.value ~default:[] (Hashtbl.find_opt t.partials key)
      in
      let expected = List.length rev_payloads in
      if frag_idx <> expected then
        corrupt "block %d: fragment %d arrived out of order (expected %d)" pos
          frag_idx expected;
      if last then begin
        Hashtbl.remove t.partials key;
        Some (pos, String.concat "" (List.rev (payload :: rev_payloads)))
      end
      else begin
        Hashtbl.replace t.partials key (payload :: rev_payloads);
        None
      end

    let pending t = Hashtbl.length t.partials
  end
end

open Hyder_tree
open Node
module Wire = Hyder_util.Wire
module Crc32 = Hyder_util.Crc32

(* The canonical corruption exception lives in [View], the decoder;
   encode raises it too, so callers catch one constructor. *)
exception Corrupt = View.Corrupt

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

(* A growable buffer, optionally backed by a per-domain Buf_pool, so the
   steady state allocates only the result string. *)
type encoder = {
  pool : Hyder_util.Buf_pool.t option;
  mutable buf : Bytes.t;
  mutable len : int;  (** bytes written, header gap included *)
  mutable nodes : int;  (** records written *)
}

let alloc pool size =
  match pool with
  | None -> Bytes.create size
  | Some p -> Hyder_util.Buf_pool.acquire p size

let grow e need =
  let cap = ref (max 16 (2 * Bytes.length e.buf)) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let bigger = alloc e.pool !cap in
  Bytes.blit e.buf 0 bigger 0 e.len;
  (match e.pool with
  | None -> ()
  | Some p -> Hyder_util.Buf_pool.release p e.buf);
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

  let create ?pool () =
    { pool; buf = alloc pool 8192; len = 0; nodes = 0 }

  let encode = encode_with

  let free t =
    (match t.pool with
    | None -> ()
    | Some p -> Hyder_util.Buf_pool.release p t.buf);
    t.buf <- Bytes.empty;
    t.len <- 0
end

let encode d = encode_with (Encoder.create ()) d
let encoded_size d = String.length (encode d)

type resolver = snapshot:int -> key:Key.t -> vn:Vn.t -> Node.tree

let peek_snapshot = View.peek_snapshot

module Blocks = struct
  (* Framing: crc32 | server | txn_seq | frag_idx | last flag | payload. *)
  let overhead = 4 + 10 + 10 + 10 + 1 + 10

  let split ?pool ~block_size ~server ~txn_seq s =
    if block_size <= overhead then invalid_arg "Codec.Blocks.split: tiny block";
    let chunk = block_size - overhead in
    let total = String.length s in
    let nfrags = max 1 ((total + chunk - 1) / chunk) in
    List.init nfrags (fun i ->
        let off = i * chunk in
        let len = min chunk (total - off) in
        let body = Wire.Writer.create ?pool ~capacity:(len + 32) () in
        Wire.Writer.varint body server;
        Wire.Writer.varint body txn_seq;
        Wire.Writer.varint body i;
        Wire.Writer.u8 body (if i = nfrags - 1 then 1 else 0);
        Wire.Writer.substring body s ~pos:off ~len;
        let payload = Wire.Writer.contents body in
        Wire.Writer.free body;
        let framed =
          Wire.Writer.create ?pool ~capacity:(String.length payload + 4) ()
        in
        Wire.Writer.u32 framed (Crc32.digest_string payload);
        Wire.Writer.raw framed
          (Bytes.unsafe_of_string payload)
          ~pos:0 ~len:(String.length payload);
        let block = Wire.Writer.contents framed in
        Wire.Writer.free framed;
        block)

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

(* Lazy decode: validate + bind in one pass, build no nodes.  [root] is a
   placeholder; the flyweight in [view] carries the tree, and whoever
   needs heap nodes calls [View.materialize_root]. *)
let decode_lazy ~pos ?(peer = Node.empty) ~resolve s =
  let v = View.parse ~pos ~peer ~resolve s in
  {
    Intention.pos;
    snapshot = View.snapshot v;
    server = View.server v;
    txn_seq = View.txn_seq v;
    isolation = isolation_of_int (View.isolation_code v);
    root = Node.empty;
    node_count = View.node_count v;
    byte_size = View.byte_size v;
    view = Some v;
  }

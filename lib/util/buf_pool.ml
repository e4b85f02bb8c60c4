(* Single-owner freelist of byte buffers, bucketed by power-of-two size.

   No synchronization: a pool belongs to one domain.  Buckets are LIFO so the hottest buffer
   — still warm in cache — is reused first. *)

let min_log = 4 (* 16-byte floor, matching Wire.Writer's minimum *)
let max_log = 30

type t = {
  free : Bytes.t list array;  (** bucket [i] holds buffers of 2^(i+min_log) *)
  mutable hits : int;
  mutable misses : int;
  mutable outstanding : int;
      (** pool-eligible buffers acquired and not yet released; the
          balance a drained run must bring back to zero *)
}

let create () =
  { free = Array.make (max_log - min_log + 1) []; hits = 0; misses = 0;
    outstanding = 0 }

let bucket_of size =
  let b = ref 0 in
  while 1 lsl (!b + min_log) < size do
    incr b
  done;
  !b

let acquire t size =
  if size < 0 || size > 1 lsl max_log then invalid_arg "Buf_pool.acquire";
  let b = bucket_of size in
  t.outstanding <- t.outstanding + 1;
  match t.free.(b) with
  | buf :: rest ->
      t.free.(b) <- rest;
      t.hits <- t.hits + 1;
      buf
  | [] ->
      t.misses <- t.misses + 1;
      Bytes.create (1 lsl (b + min_log))

let release t buf =
  let len = Bytes.length buf in
  (* Only pool the exact power-of-two sizes acquire hands out; anything
     else (a buffer the caller made itself) is left to the GC. *)
  if len >= 1 lsl min_log && len <= 1 lsl max_log && len land (len - 1) = 0
  then begin
    let b = bucket_of len in
    (* Buckets are shallow (≤ 8 deep), so a physical scan is cheap and
       catches the classic lifetime bug: releasing the same buffer twice
       would let two later acquires alias one buffer. *)
    if List.exists (fun parked -> parked == buf) t.free.(b) then
      invalid_arg "Buf_pool.release: buffer released twice";
    if t.outstanding <= 0 then
      invalid_arg "Buf_pool.release: more releases than acquires";
    t.outstanding <- t.outstanding - 1;
    (* Keep buckets shallow: a deep freelist is just a leak with extra
       steps when a burst subsides. *)
    if List.length t.free.(b) < 8 then t.free.(b) <- buf :: t.free.(b)
  end

let hits t = t.hits
let misses t = t.misses

let pooled t =
  Array.fold_left (fun acc l -> acc + List.length l) 0 t.free

let in_flight t = t.outstanding

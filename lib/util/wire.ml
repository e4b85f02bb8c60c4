exception Truncated

module Writer = struct
  type t = { mutable buf : Bytes.t; mutable len : int; pool : Buf_pool.t option }

  let alloc pool size =
    match pool with
    | None -> Bytes.create size
    | Some p -> Buf_pool.acquire p size

  let create ?pool ?(capacity = 256) () =
    { buf = alloc pool (max 16 capacity); len = 0; pool }

  let length t = t.len
  let clear t = t.len <- 0

  let free t =
    (match t.pool with None -> () | Some p -> Buf_pool.release p t.buf);
    t.buf <- Bytes.empty;
    t.len <- 0

  let ensure t extra =
    let needed = t.len + extra in
    if needed > Bytes.length t.buf then begin
      let cap = ref (max 16 (2 * Bytes.length t.buf)) in
      while !cap < needed do
        cap := 2 * !cap
      done;
      let bigger = alloc t.pool !cap in
      Bytes.blit t.buf 0 bigger 0 t.len;
      (match t.pool with None -> () | Some p -> Buf_pool.release p t.buf);
      t.buf <- bigger
    end

  let u8 t v =
    ensure t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (v land 0xFF));
    t.len <- t.len + 1

  let u32 t v =
    ensure t 4;
    Bytes.set_int32_le t.buf t.len v;
    t.len <- t.len + 4

  let varint64 t v =
    let v = ref v in
    let continue = ref true in
    while !continue do
      let low = Int64.to_int (Int64.logand !v 0x7FL) in
      v := Int64.shift_right_logical !v 7;
      if !v = 0L then begin
        u8 t low;
        continue := false
      end
      else u8 t (low lor 0x80)
    done

  let varint t v =
    if v < 0 then invalid_arg "Wire.Writer.varint: negative";
    (* Unboxed: a non-negative int zero-extends to 64 bits, so this
       writes exactly varint64's bytes without boxing an Int64 per
       7-bit group. *)
    let v = ref v in
    let continue = ref true in
    while !continue do
      let low = !v land 0x7F in
      v := !v lsr 7;
      if !v = 0 then begin
        u8 t low;
        continue := false
      end
      else u8 t (low lor 0x80)
    done

  let raw t b ~pos ~len =
    ensure t len;
    Bytes.blit b pos t.buf t.len len;
    t.len <- t.len + len

  let bytes t s =
    varint t (String.length s);
    raw t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

  let substring t s ~pos ~len =
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Wire.Writer.substring: range out of bounds";
    varint t len;
    ensure t len;
    Bytes.blit_string s pos t.buf t.len len;
    t.len <- t.len + len

  let contents t = Bytes.sub_string t.buf 0 t.len

  let blit_into t dst ~dst_pos = Bytes.blit t.buf 0 dst dst_pos t.len
end

module Reader = struct
  type t = { src : string; limit : int; mutable pos : int }

  let of_string ?(pos = 0) ?len src =
    let limit =
      match len with None -> String.length src | Some l -> pos + l
    in
    if pos < 0 || limit > String.length src then
      invalid_arg "Wire.Reader.of_string: range out of bounds";
    { src; limit; pos }

  let pos t = t.pos
  let remaining t = t.limit - t.pos

  let u8 t =
    if t.pos >= t.limit then raise Truncated;
    let v = Char.code (String.unsafe_get t.src t.pos) in
    t.pos <- t.pos + 1;
    v

  let u32 t =
    if t.pos + 4 > t.limit then raise Truncated;
    let v = String.get_int32_le t.src t.pos in
    t.pos <- t.pos + 4;
    v

  let varint64 t =
    let result = ref 0L in
    let shift = ref 0 in
    let continue = ref true in
    while !continue do
      if !shift > 63 then raise Truncated;
      let b = u8 t in
      result :=
        Int64.logor !result
          (Int64.shift_left (Int64.of_int (b land 0x7F)) !shift);
      shift := !shift + 7;
      if b land 0x80 = 0 then continue := false
    done;
    !result

  (* Unboxed: bit-equal to [Int64.to_int (varint64 t)], which keeps the
     low 63 bits.  A group at shift 63 can only reach bit 63, which that
     conversion drops, so it is read and skipped rather than shifted (an
     [lsl] by 63 is unspecified on 63-bit ints). *)
  let varint t =
    let b = u8 t in
    if b < 0x80 then b
    else begin
      let x = ref (b land 0x7F) and shift = ref 7 and continue = ref true in
      while !continue do
        if !shift > 63 then raise Truncated;
        let b = u8 t in
        if !shift < 63 then x := !x lor ((b land 0x7F) lsl !shift);
        shift := !shift + 7;
        if b land 0x80 = 0 then continue := false
      done;
      !x
    end

  let bytes t =
    let len = varint t in
    if len < 0 || len > t.limit - t.pos then raise Truncated;
    let s = String.sub t.src t.pos len in
    t.pos <- t.pos + len;
    s

  let skip t n =
    if n < 0 || n > t.limit - t.pos then raise Truncated;
    t.pos <- t.pos + n
end

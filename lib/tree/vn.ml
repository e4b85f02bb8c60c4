type t =
  | Logged of { pos : int; idx : int }
  | Ephemeral of { thread : int; seq : int }

let logged ~pos ~idx = Logged { pos; idx }
let ephemeral ~thread ~seq = Ephemeral { thread; seq }
let genesis ~idx = Logged { pos = -1; idx }

let equal a b =
  match (a, b) with
  | Logged x, Logged y -> x.pos = y.pos && x.idx = y.idx
  | Ephemeral x, Ephemeral y -> x.thread = y.thread && x.seq = y.seq
  | Logged _, Ephemeral _ | Ephemeral _, Logged _ -> false

let compare a b =
  match (a, b) with
  | Logged x, Logged y ->
      let c = Int.compare x.pos y.pos in
      if c <> 0 then c else Int.compare x.idx y.idx
  | Ephemeral x, Ephemeral y ->
      let c = Int.compare x.thread y.thread in
      if c <> 0 then c else Int.compare x.seq y.seq
  | Logged _, Ephemeral _ -> -1
  | Ephemeral _, Logged _ -> 1

let intention_pos = function
  | Logged { pos; _ } -> Some pos
  | Ephemeral _ -> None

let pp fmt = function
  | Logged { pos; idx } -> Format.fprintf fmt "L(%d,%d)" pos idx
  | Ephemeral { thread; seq } -> Format.fprintf fmt "E(%d,%d)" thread seq

let to_string v = Format.asprintf "%a" pp v

module Alloc = struct
  type t = { thread : int; mutable seq : int }

  let create ~thread = { thread; seq = 0 }
  let thread t = t.thread

  let next_seq t =
    let seq = t.seq in
    t.seq <- seq + 1;
    seq

  let issued t = t.seq
  let reset t = t.seq <- 0

  let resume t ~issued =
    if issued < 0 then invalid_arg "Vn.Alloc.resume";
    t.seq <- issued
end

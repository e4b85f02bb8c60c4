module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable total : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; total = 0.0; min = infinity; max = neg_infinity }

  let clear t =
    t.n <- 0;
    t.mean <- 0.0;
    t.m2 <- 0.0;
    t.total <- 0.0;
    t.min <- infinity;
    t.max <- neg_infinity

  let copy t = { t with n = t.n }

  let add t x =
    t.n <- t.n + 1;
    t.total <- t.total +. x;
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let total t = t.total
  let mean t = if t.n = 0 then 0.0 else t.mean

  let stddev t =
    if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))

  let min t = t.min
  let max t = t.max
end

module Sample = struct
  type t = {
    mutable data : float array;
    mutable n : int;
    mutable sorted : bool;
  }

  let create () = { data = Array.make 1024 0.0; n = 0; sorted = false }

  let add t x =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1;
    t.sorted <- false

  let count t = t.n

  let mean t =
    if t.n = 0 then 0.0
    else begin
      let acc = ref 0.0 in
      for i = 0 to t.n - 1 do
        acc := !acc +. t.data.(i)
      done;
      !acc /. float_of_int t.n
    end

  let ensure_sorted t =
    if not t.sorted then begin
      let view = Array.sub t.data 0 t.n in
      Array.sort Float.compare view;
      Array.blit view 0 t.data 0 t.n;
      t.sorted <- true
    end

  let percentile t p =
    if t.n = 0 then invalid_arg "Stats.Sample.percentile: empty sample";
    if p < 0.0 || p > 100.0 then
      invalid_arg "Stats.Sample.percentile: p out of range";
    ensure_sorted t;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
    let idx = if rank <= 0 then 0 else Stdlib.min (t.n - 1) (rank - 1) in
    t.data.(idx)
end

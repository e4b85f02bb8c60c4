module Histogram = struct
  let n_buckets = 64
  let min_exp = -16

  type t = { counts : int array; mutable n : int; mutable sum : float }

  let bucket_of x =
    if x <= 0.0 then 0
    else begin
      (* frexp: x = m * 2^e with 0.5 <= m < 1, so 2^(e-1) <= x < 2^e. *)
      let _, e = Float.frexp x in
      let i = e - 1 - min_exp in
      if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i
    end

  let lower_bound i = Float.ldexp 1.0 (i + min_exp)

  let observe h x =
    h.counts.(bucket_of x) <- h.counts.(bucket_of x) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum +. x

  let count h = h.n
  let sum h = h.sum
  let bucket_counts h = Array.copy h.counts
end

type t = { items : (string, Histogram.t) Hashtbl.t }

let create () = { items = Hashtbl.create 32 }

let histogram t name =
  match Hashtbl.find_opt t.items name with
  | Some h -> h
  | None ->
      let h =
        { Histogram.counts = Array.make Histogram.n_buckets 0; n = 0; sum = 0.0 }
      in
      Hashtbl.add t.items name h;
      h

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

type value = Histogram_v of { counts : int array; count : int; sum : float }
type snapshot = (string * value) list

let snapshot t =
  Hashtbl.fold
    (fun name (h : Histogram.t) acc ->
      (name, Histogram_v { counts = Array.copy h.counts; count = h.n; sum = h.sum })
      :: acc)
    t.items []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff ~base current =
  List.map
    (fun (name, (Histogram_v { counts; count; sum } as v)) ->
      match List.assoc_opt name base with
      | None -> (name, v)
      | Some (Histogram_v { counts = c0; count = n0; sum = s0 }) ->
          ( name,
            Histogram_v
              {
                counts = Array.mapi (fun i c -> c - c0.(i)) counts;
                count = count - n0;
                sum = sum -. s0;
              } ))
    current

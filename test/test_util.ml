module Rng = Hyder_util.Rng
module Dist = Hyder_util.Dist
module Stats = Hyder_util.Stats
module Wire = Hyder_util.Wire
module Crc32 = Hyder_util.Crc32

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- clock --------------------------------------------------------------- *)

(* The pipeline's stage bracket reads the clock twice per stage, outside
   every stage's words: a boxed reading would allocate there on every
   bracket.  Native code gets the reading unboxed, so 1,000 reads into a
   flat float record allocate nothing, and the readings never go back. *)
type readings = { mutable last : float; mutable backwards : float }

let test_clock_allocates_nothing () =
  let r = { last = Hyder_util.Clock.now (); backwards = 0.0 } in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    let t = Hyder_util.Clock.now () in
    if t < r.last then r.backwards <- r.backwards +. 1.0;
    r.last <- t
  done;
  let words = Gc.minor_words () -. w0 in
  check (Printf.sprintf "1,000 reads allocate %.0f minor words" words) true
    (words = 0.0);
  check "monotonic" true (r.backwards = 0.0)

(* --- prefetch ------------------------------------------------------------ *)

(* A hint with no semantics: immediates, the static empty-tree sentinel
   and heap blocks are all accepted and nothing they hold changes. *)
let test_prefetch_accepts_anything () =
  let module Prefetch = Hyder_util.Prefetch in
  let module Node = Hyder_tree.Node in
  Prefetch.block 0;
  Prefetch.block max_int;
  Prefetch.block min_int;
  Prefetch.block ();
  Prefetch.block None;
  Prefetch.block Node.empty;
  Prefetch.block Node.empty.Node.left;
  let s = String.make 3 'x' and a = [| 1; 2 |] in
  Prefetch.block s;
  Prefetch.block a;
  Prefetch.block 1.5;
  check "sentinel unchanged" true (Node.is_empty Node.empty);
  check "blocks unchanged" true (s = "xxx" && a = [| 1; 2 |])

(* --- rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check "same stream" true (Rng.next_int64 a = Rng.next_int64 b)
  done;
  let c = Rng.create 43L in
  check "different seed differs" false (Rng.next_int64 a = Rng.next_int64 c)

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    check "in range" true (v >= 0 && v < 17);
    let f = Rng.unit_float r in
    check "unit float" true (f >= 0.0 && f < 1.0);
    let x = Rng.int_in r (-5) 5 in
    check "int_in" true (x >= -5 && x <= 5)
  done

let test_rng_uniformity () =
  let r = Rng.create 11L in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      check "within 10% of uniform" true (abs (c - expected) < expected / 10))
    counts

let test_rng_split_independent () =
  let r = Rng.create 5L in
  let s = Rng.split r in
  check "split streams differ" false (Rng.next_int64 r = Rng.next_int64 s)

let test_exponential_mean () =
  let r = Rng.create 3L in
  let sum = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  check (Printf.sprintf "mean ~2.0 (got %.3f)" mean) true
    (mean > 1.9 && mean < 2.1)

let test_shuffle_permutation () =
  let r = Rng.create 9L in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check "still a permutation" true (sorted = Array.init 100 (fun i -> i));
  check "actually shuffled" false (a = Array.init 100 (fun i -> i))

(* --- distributions ------------------------------------------------------ *)

let sample_many dist n =
  let r = Rng.create 123L in
  let counts = Hashtbl.create 64 in
  for _ = 1 to n do
    let k = Dist.sample dist r in
    Hashtbl.replace counts k
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  counts

let test_uniform_covers () =
  let counts = sample_many (Dist.uniform ~n:100) 100_000 in
  check "all keys hit" true (Hashtbl.length counts = 100);
  Hashtbl.iter (fun k _ -> check "in range" true (k >= 0 && k < 100)) counts

let test_zipfian_skew () =
  let d = Dist.zipfian ~n:10_000 () in
  let counts = sample_many d 100_000 in
  let hits k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  check "key 0 hottest" true (hits 0 > hits 100);
  check "head heavy" true (hits 0 + hits 1 + hits 2 > 100_000 / 10);
  let r = Rng.create 55L in
  for _ = 1 to 10_000 do
    let k = Dist.sample d r in
    check "range" true (k >= 0 && k < 10_000)
  done

let test_scrambled_zipfian_scatters () =
  let d = Dist.scrambled_zipfian ~n:10_000 () in
  let counts = sample_many d 100_000 in
  let hot =
    Hashtbl.fold (fun k c acc -> if c > 1000 then k :: acc else acc) counts []
  in
  check "has hot keys" true (List.length hot > 0);
  check "hot keys scattered" true (List.exists (fun k -> k > 1000) hot)

let test_hotspot () =
  (* x=0.1: 10% of keys get 90% of accesses. *)
  let d = Dist.hotspot ~x:0.1 ~n:1000 in
  let counts = sample_many d 100_000 in
  let hot_hits =
    Hashtbl.fold (fun k c acc -> if k < 100 then acc + c else acc) counts 0
  in
  check
    (Printf.sprintf "hot set gets ~90%% (got %d%%)" (hot_hits / 1000))
    true
    (hot_hits > 85_000 && hot_hits < 95_000)

let test_hotspot_degenerate_uniform () =
  let d = Dist.hotspot ~x:1.0 ~n:100 in
  let counts = sample_many d 50_000 in
  check "covers most keys" true (Hashtbl.length counts > 95)

let test_latest_follows_front () =
  let d = Dist.latest ~n:100 in
  Dist.set_max d 1000;
  let counts = sample_many d 50_000 in
  let hits k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  check "front is hottest" true (hits 999 > hits 100)

(* --- stats -------------------------------------------------------------- *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_int "count" 8 (Stats.Summary.count s);
  check "mean" true (abs_float (Stats.Summary.mean s -. 5.0) < 1e-9);
  check "stddev" true (abs_float (Stats.Summary.stddev s -. 2.138) < 0.01);
  check "min" true (Stats.Summary.min s = 2.0);
  check "max" true (Stats.Summary.max s = 9.0);
  check "total" true (Stats.Summary.total s = 40.0)

let test_sample_percentiles () =
  let s = Stats.Sample.create () in
  for i = 1 to 1000 do
    Stats.Sample.add s (float_of_int i)
  done;
  check "p50" true (Stats.Sample.percentile s 50.0 = 500.0);
  check "p95" true (Stats.Sample.percentile s 95.0 = 950.0);
  check "p99" true (Stats.Sample.percentile s 99.0 = 990.0);
  check "p100" true (Stats.Sample.percentile s 100.0 = 1000.0);
  check "mean" true (abs_float (Stats.Sample.mean s -. 500.5) < 1e-6)

let test_sample_interleaved_sort () =
  let s = Stats.Sample.create () in
  Stats.Sample.add s 5.0;
  Stats.Sample.add s 1.0;
  ignore (Stats.Sample.percentile s 50.0);
  Stats.Sample.add s 0.5;
  check "re-sorts after add" true (Stats.Sample.percentile s 0.0 = 0.5)

(* --- wire --------------------------------------------------------------- *)

let test_wire_roundtrip () =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 200;
  Wire.Writer.u32 w 0xDEADBEEFl;
  Wire.Writer.varint w 0;
  Wire.Writer.varint w 127;
  Wire.Writer.varint w 128;
  Wire.Writer.varint w 300_000_000;
  Wire.Writer.varint64 w Int64.max_int;
  Wire.Writer.varint64 w (-1L);
  Wire.Writer.bytes w "hello";
  Wire.Writer.bytes w "";
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  check_int "u8" 200 (Wire.Reader.u8 r);
  check "u32" true (Wire.Reader.u32 r = 0xDEADBEEFl);
  check_int "v0" 0 (Wire.Reader.varint r);
  check_int "v127" 127 (Wire.Reader.varint r);
  check_int "v128" 128 (Wire.Reader.varint r);
  check_int "vbig" 300_000_000 (Wire.Reader.varint r);
  check "vmax" true (Wire.Reader.varint64 r = Int64.max_int);
  check "vneg" true (Wire.Reader.varint64 r = -1L);
  Alcotest.(check string) "bytes" "hello" (Wire.Reader.bytes r);
  Alcotest.(check string) "empty" "" (Wire.Reader.bytes r);
  check_int "drained" 0 (Wire.Reader.remaining r)

let test_wire_truncated () =
  let r = Wire.Reader.of_string "\x80" in
  Alcotest.check_raises "truncated varint" Wire.Truncated (fun () ->
      ignore (Wire.Reader.varint r))

let test_wire_varint_sizes () =
  let size v =
    let w = Wire.Writer.create () in
    Wire.Writer.varint w v;
    Wire.Writer.length w
  in
  check_int "1 byte" 1 (size 127);
  check_int "2 bytes" 2 (size 128);
  check_int "2 bytes max" 2 (size 16383);
  check_int "3 bytes" 3 (size 16384)

let prop_wire_varint_roundtrip =
  QCheck2.Test.make ~name:"varint64 roundtrips" ~count:1000
    QCheck2.Gen.(map Int64.of_int int)
    (fun v ->
      let w = Wire.Writer.create () in
      Wire.Writer.varint64 w v;
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      Wire.Reader.varint64 r = v)

(* The unboxed [varint] reads exactly what [varint64] reads, truncated to
   an int, on any bytes: long continuation runs reach the shift-63 group
   and the over-long [Truncated] case. *)
let prop_wire_varint_matches_varint64 =
  QCheck2.Test.make ~name:"varint = Int64.to_int varint64" ~count:2000
    QCheck2.Gen.(
      string_size
        ~gen:(frequency [ (4, map Char.chr (int_range 0x80 0xff)); (1, char) ])
        (int_bound 12))
    (fun s ->
      let read f =
        let r = Wire.Reader.of_string s in
        match f r with
        | v -> Some (v, Wire.Reader.pos r)
        | exception Wire.Truncated -> None
      in
      read Wire.Reader.varint
      = read (fun r -> Int64.to_int (Wire.Reader.varint64 r)))

(* --- crc32 -------------------------------------------------------------- *)

let test_crc32_known_value () =
  (* IEEE CRC-32 of "123456789" is 0xCBF43926. *)
  check "check value" true
    (Int32.equal (Crc32.digest_string "123456789") 0xCBF43926l)

let test_crc32_detects_corruption () =
  let a = Crc32.digest_string "hello world" in
  let b = Crc32.digest_string "hello worle" in
  check "differs" false (Int32.equal a b)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_wire_varint_roundtrip;
      prop_wire_varint_matches_varint64;
    ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutation;
        ] );
      ( "dist",
        [
          Alcotest.test_case "uniform" `Quick test_uniform_covers;
          Alcotest.test_case "zipfian" `Quick test_zipfian_skew;
          Alcotest.test_case "scrambled zipfian" `Quick
            test_scrambled_zipfian_scatters;
          Alcotest.test_case "hotspot" `Quick test_hotspot;
          Alcotest.test_case "hotspot x=1" `Quick
            test_hotspot_degenerate_uniform;
          Alcotest.test_case "latest" `Quick test_latest_follows_front;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "percentiles" `Quick test_sample_percentiles;
          Alcotest.test_case "interleaved sort" `Quick
            test_sample_interleaved_sort;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "truncated" `Quick test_wire_truncated;
          Alcotest.test_case "varint sizes" `Quick test_wire_varint_sizes;
        ] );
      ( "prefetch",
        [
          Alcotest.test_case "immediates, sentinel and blocks" `Quick
            test_prefetch_accepts_anything;
        ] );
      ( "clock",
        [
          Alcotest.test_case "1,000 reads allocate nothing" `Quick
            test_clock_allocates_nothing;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known value" `Quick test_crc32_known_value;
          Alcotest.test_case "corruption" `Quick test_crc32_detects_corruption;
        ] );
      ("properties", qcheck_cases);
    ]

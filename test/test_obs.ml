(* Hyder_obs: histogram registry, exporters, flight recorder and its
   offline analyzer — and the inertness contract: wiring a flight
   recorder into the pipeline changes NOTHING observable (decisions,
   ephemeral node identities, integer counters, each stage's minor
   words), whatever the wire batch size. *)

module Json = Hyder_obs.Json
module Metrics = Hyder_obs.Metrics
module Flight = Hyder_obs.Flight
module Analyze = Hyder_obs.Analyze
module Tree = Hyder_tree.Tree
module Pipeline = Hyder_core.Pipeline
module Premeld = Hyder_core.Premeld
module Counters = Hyder_core.Counters
module Executor = Hyder_core.Executor
module I = Hyder_codec.Intention
module Summary = Hyder_util.Stats.Summary
module Rng = Hyder_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_temp_file prefix f =
  let path = Filename.temp_file prefix ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

let test_json () =
  check_string "scalars" "[null,true,false,42,-7,2.5,0]"
    (Json.to_string
       (Json.List
          [
            Json.Null; Json.Bool true; Json.Bool false; Json.Int 42;
            Json.Int (-7); Json.Float 2.5; Json.Float 0.0;
          ]));
  check_string "non-finite floats become null" "[null,null,null]"
    (Json.to_string
       (Json.List
          [ Json.Float Float.nan; Json.Float infinity; Json.Float neg_infinity ]));
  check_string "escaping"
    "{\"k\\\"\\\\\":\"a\\nb\\tc\\u0001\"}"
    (Json.to_string (Json.Obj [ ("k\"\\", Json.String "a\nb\tc\001") ]));
  check_string "integers stay compact" "500000"
    (Json.to_string (Json.Float 500000.0))

let test_json_parse () =
  check "null" true (Json.of_string " null " = Json.Null);
  check "bools" true
    (Json.of_string "true" = Json.Bool true
    && Json.of_string "false" = Json.Bool false);
  check "integral numbers parse to Int" true
    (Json.of_string "42" = Json.Int 42 && Json.of_string "-7" = Json.Int (-7));
  check "fractional numbers parse to Float" true
    (Json.of_string "2.5" = Json.Float 2.5);
  check "escapes decode" true
    (Json.of_string "\"a\\nb\\tc\\u0041\"" = Json.String "a\nb\tcA");
  (* serialized-form round-trip over the document shapes the sinks emit *)
  let doc =
    Json.Obj
      [
        ("pos", Json.Int 7);
        ("abort_reason", Json.Null);
        ("committed", Json.Bool true);
        ("wait", Json.Obj [ ("ds", Json.Float 0.25); ("pm", Json.Float 0.0) ]);
        ("tags", Json.List [ Json.String "a\"b"; Json.Int (-1) ]);
      ]
  in
  let s = Json.to_string doc in
  check_string "to_string . of_string round-trips" s
    (Json.to_string (Json.of_string s));
  check "empty input rejected" true (Json.of_string_opt "" = None);
  check "unterminated object rejected" true
    (Json.of_string_opt "{\"a\":" = None);
  check "trailing garbage rejected" true (Json.of_string_opt "42 x" = None);
  (* floats %.12g would truncate read back bit-exactly: a monotonic
     timestamp after 11.6 days of uptime, one after a day carrying
     nanoseconds, and a subnormal *)
  List.iter
    (fun f ->
      let s = Json.to_string (Json.Float f) in
      check (s ^ " round-trips") true (Json.of_string s = Json.Float f))
    [ 1000000.123456789; 86400.000012345; 4.9406564584124654e-324 ];
  check_string "short form kept when exact" "0.1"
    (Json.to_string (Json.Float 0.1));
  match Json.of_string "nope" with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad literal accepted"

(* ------------------------------------------------------------------ *)
(* Histogram buckets                                                    *)
(* ------------------------------------------------------------------ *)

let test_histogram_buckets () =
  let module H = Metrics.Histogram in
  (* every bucket's lower bound lands in that bucket, and the last value
     before the next bound does too *)
  for i = 0 to H.n_buckets - 1 do
    check_int
      (Printf.sprintf "lower_bound %d maps to itself" i)
      i
      (H.bucket_of (H.lower_bound i));
    check_int
      (Printf.sprintf "just below bound %d" (i + 1))
      i
      (H.bucket_of (Float.pred (H.lower_bound (i + 1))))
  done;
  check_int "zero clamps low" 0 (H.bucket_of 0.0);
  check_int "negative clamps low" 0 (H.bucket_of (-3.0));
  check_int "tiny clamps low" 0 (H.bucket_of 1e-30);
  check_int "huge clamps high" (H.n_buckets - 1) (H.bucket_of 1e30);
  check "1.0 sits at 2^0" true (H.lower_bound (H.bucket_of 1.0) = 1.0);
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  List.iter (H.observe h) [ 1.0; 1.5; 4.0 ];
  check_int "count" 3 (H.count h);
  check "sum" true (H.sum h = 6.5);
  let counts = H.bucket_counts h in
  check_int "[1,2) holds two" 2 counts.(H.bucket_of 1.0);
  check_int "[4,8) holds one" 1 counts.(H.bucket_of 4.0)

(* ------------------------------------------------------------------ *)
(* Registry: find-or-create, snapshot, diff                             *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  Metrics.Histogram.observe h 1.0;
  check "same name, same histogram" true (Metrics.histogram m "h" == h);
  let g = Metrics.histogram m "g" in
  check "another name, another histogram" true (g != h);
  Metrics.Histogram.observe g 2.0;
  check "snapshot sorted by name" true
    (List.map fst (Metrics.snapshot m) = [ "g"; "h" ]);
  let base = Metrics.snapshot m in
  Metrics.Histogram.observe h 4.0;
  Metrics.Histogram.observe h 4.0;
  ignore (Metrics.histogram m "late");
  let d = Metrics.diff ~base (Metrics.snapshot m) in
  (match List.assoc "h" d with
  | Metrics.Histogram_v { count; sum; counts } ->
      check_int "histogram diff count" 2 count;
      check "histogram diff sum" true (sum = 8.0);
      check_int "histogram diff buckets" 2
        counts.(Metrics.Histogram.bucket_of 4.0);
      check_int "base-only bucket cancels" 0
        counts.(Metrics.Histogram.bucket_of 1.0));
  (match List.assoc "g" d with
  | Metrics.Histogram_v { count; sum; _ } ->
      check "untouched histogram diffs to zero" true (count = 0 && sum = 0.0));
  match List.assoc_opt "late" d with
  | Some (Metrics.Histogram_v { count; _ }) ->
      check_int "name absent from base subtracts zero" 0 count
  | None -> Alcotest.fail "late histogram missing from the diff"

(* ------------------------------------------------------------------ *)
(* Summary.copy / Counters.copy (streaming summaries survive the copy)  *)
(* ------------------------------------------------------------------ *)

let test_summary_copy () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 1.0; 2.0; 3.0 ];
  let c = Summary.copy s in
  Summary.add s 100.0;
  check_int "copy keeps its own count" 3 (Summary.count c);
  check "copy keeps its own mean" true (Summary.mean c = 2.0);
  check_int "original moved on" 4 (Summary.count s);
  Summary.add c 3.0;
  check_int "copies are independent both ways" 4 (Summary.count s)

let test_counters_copy_preserves_summaries () =
  let c = Counters.create () in
  List.iter (Summary.add c.Counters.conflict_zone) [ 10.0; 20.0 ];
  Summary.add c.Counters.fm_nodes_per_txn 7.0;
  Summary.add c.Counters.intention_bytes 512.0;
  c.Counters.committed <- 5;
  c.Counters.premeld.Counters.intentions <- 3;
  let snap = Counters.copy c in
  List.iter (Summary.add c.Counters.conflict_zone) [ 30.0; 40.0 ];
  c.Counters.committed <- 9;
  c.Counters.premeld.Counters.intentions <- 8;
  check "copied premeld is its own record" true
    (snap.Counters.premeld != c.Counters.premeld);
  check_int "copied premeld kept its count" 3
    snap.Counters.premeld.Counters.intentions;
  check_int "copied conflict_zone count" 2
    (Summary.count snap.Counters.conflict_zone);
  check "copied conflict_zone total" true
    (Summary.total snap.Counters.conflict_zone = 30.0);
  check_int "copied fm_nodes_per_txn" 1
    (Summary.count snap.Counters.fm_nodes_per_txn);
  check "copied intention_bytes" true
    (Summary.total snap.Counters.intention_bytes = 512.0);
  check_int "copied scalar fields" 5 snap.Counters.committed;
  c.Counters.final_meld.Counters.minor_words <- 12;
  let snap = Counters.copy c in
  c.Counters.final_meld.Counters.minor_words <- 20;
  check "copy carries minor_words" true
    (snap.Counters.final_meld.Counters.minor_words = 12);
  check_int "live kept moving" 4 (Summary.count c.Counters.conflict_zone)

(* ------------------------------------------------------------------ *)
(* Flight recorder lifecycle                                            *)
(* ------------------------------------------------------------------ *)

(* All timestamps are exact binary fractions: the wait/service chain
   arithmetic and the JSON sink line are then deterministic down to the
   last digit. *)
let test_flight_lifecycle () =
  with_temp_file "flight" @@ fun path ->
  let m = Metrics.create () in
  let oc = open_out path in
  let f = Flight.create ~label:"test" ~metrics:m ~sink:oc () in
  check "enabled" true (Flight.enabled f);
  check_string "label" "test" (Flight.label f);
  Flight.touch f ~pos:7 ~now:1.0;
  Flight.touch f ~pos:7 ~now:9.0 (* idempotent: t_submit stays 1.0 *);
  Flight.note_identity f ~pos:7 ~server:2 ~txn_seq:5;
  Flight.note_identity f ~pos:99 ~server:0 ~txn_seq:0 (* unknown: no-op *);
  check_int "one record in flight" 1 (Flight.in_flight f);
  (* ds: 0.25 queued behind submit, then 0.25 of work *)
  Flight.edge f ~pos:7 ~stage:Flight.Ds ~t0:1.25 ~t1:1.5;
  (* pm back-to-back with ds: no wait *)
  Flight.edge f ~pos:7 ~stage:Flight.Pm ~t0:1.5 ~t1:1.75;
  (* gm overlaps the pm edge (group stamps can): the clamp keeps the
     chain monotone — no negative wait, the cursor never moves back *)
  Flight.edge f ~pos:7 ~stage:Flight.Gm ~t0:1.625 ~t1:1.6875;
  (* fm after a 0.25 queue wait *)
  Flight.edge f ~pos:7 ~stage:Flight.Fm ~t0:2.0 ~t1:2.5;
  (* decision stamped before the last edge's end: t_done clamps to the
     chain cursor so e2e can never undercut the attributed time *)
  Flight.complete f ~pos:7 ~now:2.25 ~seq:3 ~committed:true ~reason:""
    ~decided_at:"final_meld" ~conflict_zone:4;
  check_int "completed" 1 (Flight.completed f);
  check_int "record removed on completion" 0 (Flight.in_flight f);
  Flight.complete f ~pos:7 ~now:9.0 ~seq:3 ~committed:true ~reason:""
    ~decided_at:"final_meld" ~conflict_zone:4;
  check_int "re-completion is a no-op" 1 (Flight.completed f);
  close_out oc;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  check_string "sink line"
    ("{\"pos\":7,\"seq\":3,\"server\":2,\"txn_seq\":5,\"label\":\"test\","
    ^ "\"committed\":true,\"abort_reason\":null,\"decided_at\":\"final_meld\","
    ^ "\"conflict_zone\":4,\"t_submit\":1,\"t_done\":2.5,\"e2e\":1.5,"
    ^ "\"wait\":{\"ds\":0.25,\"pm\":0,\"gm\":0,\"fm\":0.25},"
    ^ "\"service\":{\"ds\":0.25,\"pm\":0.25,\"gm\":0.0625,\"fm\":0.5}}")
    line;
  (* the sink line parses back into exactly one analyzer txn whose chain
     sums decompose the end-to-end latency *)
  (match Analyze.txn_of_json (Json.of_string line) with
  | None -> Alcotest.fail "sink line is not a flight record"
  | Some t ->
      check "parsed e2e" true (t.Analyze.e2e = 1.5);
      let sum = ref 0.0 in
      Array.iter (fun w -> sum := !sum +. w) t.Analyze.wait;
      Array.iter (fun s -> sum := !sum +. s) t.Analyze.service;
      (* the chain invariant gives sum = (t_last - t_submit) for the
         sequential edges (1.5) plus the gm service that overlapped the
         pm edge (0.0625): attribution, not wall-clock accounting *)
      check "chain sums = span + overlapped group service" true
        (!sum = 1.5625));
  (* the histograms saw exactly this record, in microseconds *)
  let snap = Metrics.snapshot m in
  let hist name =
    match List.assoc_opt name snap with
    | Some (Metrics.Histogram_v { count; sum; _ }) -> (count, sum)
    | None -> Alcotest.failf "%s missing" name
  in
  check "e2e histogram: one record of 1.5e6 us" true
    (hist "flight_e2e_us" = (1, 1.5e6));
  List.iter2
    (fun stage us ->
      check
        (Printf.sprintf "%s service histogram: one record of %g us" stage us)
        true
        (hist (Printf.sprintf "flight_%s_service_us" stage) = (1, us)))
    [ "ds"; "pm"; "gm"; "fm" ]
    [ 250_000.0; 250_000.0; 62_500.0; 500_000.0 ];
  (* the disabled recorder is a black hole *)
  let d = Flight.disabled in
  check "disabled recorder off" false (Flight.enabled d);
  Flight.touch d ~pos:1 ~now:0.0;
  Flight.edge d ~pos:1 ~stage:Flight.Fm ~t0:0.0 ~t1:1.0;
  Flight.complete d ~pos:1 ~now:1.0 ~seq:0 ~committed:true ~reason:""
    ~decided_at:"final_meld" ~conflict_zone:0;
  check_int "disabled opens nothing" 0 (Flight.in_flight d);
  check_int "disabled completes nothing" 0 (Flight.completed d)

(* The histograms [benchmark/]'s traced run reads: it sums
   [flight_<stage>_{wait,service}_us] over a window through
   [Metrics.diff], so a renamed histogram or a unit change would read
   as zero or as a millionfold move there.  One record lands in every
   stage's pair in microseconds, and the diff against a snapshot keeps
   only what a second record added. *)
let test_flight_benchmark_histograms () =
  let m = Metrics.create () in
  let f = Flight.create ~metrics:m () in
  (* wait and service seconds per stage, all binary fractions *)
  let wait = [| 0.25; 0.0; 0.125; 0.5 |]
  and service = [| 0.25; 0.125; 0.25; 0.5 |] in
  let fly ~pos ~at ~scale =
    Flight.touch f ~pos ~now:at;
    let t = ref at in
    List.iteri
      (fun i stage ->
        let t0 = !t +. (scale *. wait.(i)) in
        let t1 = t0 +. (scale *. service.(i)) in
        Flight.edge f ~pos ~stage ~t0 ~t1;
        t := t1)
      Flight.[ Ds; Pm; Gm; Fm ];
    Flight.complete f ~pos ~now:!t ~seq:pos ~committed:true ~reason:""
      ~decided_at:"final_meld" ~conflict_zone:0
  in
  let check_sums label snap ~scale =
    Array.iteri
      (fun i stage ->
        List.iter
          (fun (kind, secs) ->
            let name = Printf.sprintf "flight_%s_%s_us" stage kind in
            match List.assoc_opt name snap with
            | Some (Metrics.Histogram_v { count; sum; _ }) ->
                check_int (label ^ ": " ^ name ^ " count") 1 count;
                check
                  (Printf.sprintf "%s: %s sum %g us" label name sum)
                  true
                  (sum = scale *. secs.(i) *. 1e6)
            | None -> Alcotest.failf "%s: %s missing" label name)
          [ ("wait", wait); ("service", service) ])
      [| "ds"; "pm"; "gm"; "fm" |]
  in
  fly ~pos:1 ~at:0.0 ~scale:1.0;
  let base = Metrics.snapshot m in
  check_sums "first record" base ~scale:1.0;
  fly ~pos:2 ~at:10.0 ~scale:0.5;
  check_sums "diff keeps the second record"
    (Metrics.diff ~base (Metrics.snapshot m))
    ~scale:0.5

(* ------------------------------------------------------------------ *)
(* Analyzer                                                             *)
(* ------------------------------------------------------------------ *)

let jfield name = function
  | Json.Obj l -> (
      match List.assoc_opt name l with
      | Some v -> v
      | None -> Alcotest.fail ("report field missing: " ^ name))
  | _ -> Alcotest.fail ("not an object at: " ^ name)

let jint name j =
  match jfield name j with
  | Json.Int i -> i
  | _ -> Alcotest.fail ("not an int: " ^ name)

let jfloat name j =
  match jfield name j with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> Alcotest.fail ("not a number: " ^ name)

let jstring name j =
  match jfield name j with
  | Json.String s -> s
  | _ -> Alcotest.fail ("not a string: " ^ name)

(* A hand-written dump with exact binary-fraction times: three labels
   (first-seen order), one abort, one corrupted-looking record with a
   negative wait, plus blank/malformed/non-record lines the loader must
   skip.  Every aggregate the report derives from it is exact. *)
let analyze_fixture =
  [
    "";
    "{ not json";
    "{\"hello\":1}";
    "{\"pos\":1,\"seq\":10,\"label\":\"A\",\"committed\":true,\
     \"decided_at\":\"final_meld\",\"t_submit\":0,\"t_done\":0.5,\"e2e\":0.5,\
     \"wait\":{\"ds\":0.25,\"pm\":0,\"gm\":0,\"fm\":0},\
     \"service\":{\"ds\":0,\"pm\":0.25,\"gm\":0,\"fm\":0}}";
    "{\"pos\":2,\"seq\":11,\"label\":\"A\",\"committed\":true,\
     \"decided_at\":\"final_meld\",\"t_submit\":1,\"t_done\":1.5,\"e2e\":0.5,\
     \"wait\":{\"ds\":0,\"pm\":0,\"gm\":0,\"fm\":0.25},\
     \"service\":{\"ds\":0,\"pm\":0,\"gm\":0,\"fm\":0.25}}";
    "{\"pos\":3,\"seq\":-1,\"label\":\"A\",\"committed\":false,\
     \"abort_reason\":\"write_conflict\",\"decided_at\":\"premeld\",\
     \"t_submit\":2,\"t_done\":2.5,\"e2e\":0.5,\
     \"wait\":{\"ds\":0,\"pm\":0,\"gm\":0.25,\"fm\":0},\
     \"service\":{\"ds\":0,\"pm\":0.25,\"gm\":0,\"fm\":0}}";
    "{\"pos\":9,\"seq\":0,\"label\":\"B\",\"committed\":true,\
     \"decided_at\":\"final_meld\",\"t_submit\":0,\"t_done\":0.5,\"e2e\":0.5,\
     \"wait\":{\"ds\":0,\"pm\":0,\"gm\":0,\"fm\":0},\
     \"service\":{\"ds\":0,\"pm\":0,\"gm\":0,\"fm\":0.5}}";
    "{\"pos\":12,\"seq\":1,\"label\":\"C\",\"committed\":true,\
     \"decided_at\":\"final_meld\",\"t_submit\":0,\"t_done\":0.5,\"e2e\":0.5,\
     \"wait\":{\"ds\":-0.25,\"pm\":0,\"gm\":0,\"fm\":0},\
     \"service\":{\"ds\":0.75,\"pm\":0,\"gm\":0,\"fm\":0}}";
  ]

let test_analyze_report () =
  with_temp_file "flight_fixture" @@ fun path ->
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    analyze_fixture;
  close_out oc;
  let txns = Analyze.load_file path in
  check_int "blank/malformed/non-record lines skipped" 5 (List.length txns);
  let report = Analyze.report ~top_k:2 txns in
  check_int "total" 5 (jint "total" report);
  let backends =
    match jfield "backends" report with
    | Json.List l -> l
    | _ -> Alcotest.fail "backends not a list"
  in
  check_int "one section per label" 3 (List.length backends);
  let a = List.nth backends 0
  and b = List.nth backends 1
  and c = List.nth backends 2 in
  check_string "first-seen label order" "A" (jstring "label" a);
  check_int "A txns" 3 (jint "txns" a);
  check_int "A commits" 2 (jint "commits" a);
  check_int "A aborts" 1 (jint "aborts" a);
  check_int "A negative waits" 0 (jint "negative_waits" a);
  check "A e2e p50 is 500000us" true
    (jfloat "p50" (jfield "e2e_us" a) = 500000.0);
  check "A stage-sum p50 covers e2e p50 exactly" true
    (jfloat "coverage_p50" a = 1.0);
  (* critical path = largest total service: pm (0.5s) over fm (0.25s) *)
  check_string "A critical path" "pm" (jstring "stage" (jfield "critical_path" a));
  let shares =
    match jfield "stages" a with
    | Json.List l -> List.map (jfloat "share") l
    | _ -> Alcotest.fail "stages not a list"
  in
  check_int "four stages in the waterfall" 4 (List.length shares);
  check "A stage shares sum to 1" true
    (Float.abs (List.fold_left ( +. ) 0.0 shares -. 1.0) < 1e-9);
  (match jfield "abort_reasons" a with
  | Json.List [ row ] ->
      check_string "abort reason" "write_conflict" (jstring "reason" row);
      check_int "abort total" 1 (jint "total" row);
      check_int "abort decided at premeld" 1
        (jint "premeld" (jfield "decided_at" row))
  | _ -> Alcotest.fail "A abort matrix should have exactly one row");
  (match jfield "slowest" a with
  | Json.List l -> check_int "top_k bounds the drill-down" 2 (List.length l)
  | _ -> Alcotest.fail "slowest not a list");
  check_string "B critical path" "fm" (jstring "stage" (jfield "critical_path" b));
  check_int "B txns" 1 (jint "txns" b);
  check_int "C flags the negative wait" 1 (jint "negative_waits" c)

let fixture_txns () =
  List.filter_map
    (fun l -> Option.bind (Json.of_string_opt l) Analyze.txn_of_json)
    analyze_fixture

(* The Chrome export of the mixed dump, byte for byte: one process per
   label in first-seen order, and per record its wait/service pieces laid
   end to end from t_submit (the negative ds wait of pos 12 and every
   zero-length piece are skipped). *)
let test_chrome_golden () =
  let proc pid name =
    Printf.sprintf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}"
      pid name
  in
  let piece ~pid ~id name t0 t1 =
    let ev ph ts =
      Printf.sprintf
        "{\"name\":\"%s\",\"cat\":\"txn\",\"ph\":\"%s\",\"id\":%d,\"ts\":%d,\"pid\":%d,\"tid\":1}"
        name ph id ts pid
    in
    [ ev "b" t0; ev "e" t1 ]
  in
  let events =
    [ proc 1 "A"; proc 2 "B"; proc 3 "C" ]
    @ piece ~pid:1 ~id:1 "ds.wait" 0 250000
    @ piece ~pid:1 ~id:1 "pm" 250000 500000
    @ piece ~pid:1 ~id:2 "fm.wait" 1000000 1250000
    @ piece ~pid:1 ~id:2 "fm" 1250000 1500000
    @ piece ~pid:1 ~id:3 "pm" 2000000 2250000
    @ piece ~pid:1 ~id:3 "gm.wait" 2250000 2500000
    @ piece ~pid:2 ~id:9 "fm" 0 500000
    @ piece ~pid:3 ~id:12 "ds" 0 750000
  in
  let out = Json.to_string (Analyze.to_chrome (fixture_txns ())) in
  check_string "chrome export of the mixed dump"
    ("{\"traceEvents\":[" ^ String.concat "," events
   ^ "],\"displayTimeUnit\":\"ms\"}")
    out;
  let pids =
    match jfield "traceEvents" (Json.of_string out) with
    | Json.List evs -> List.sort_uniq compare (List.map (jint "pid") evs)
    | _ -> Alcotest.fail "traceEvents not a list"
  in
  check "one pid per label" true (pids = [ 1; 2; 3 ])

(* Property: for random records (non-binary times around 10^6 s of
   uptime, zero-length pieces included) the serialized export parses
   back, and each record's events tile [t_submit, t_submit + Σ (wait +
   service)] in stage order with no gap or overlap: every piece ends
   exactly where the next begins. *)
let test_chrome_tiles () =
  let rng = Rng.create 7L in
  let labels = [| "seq"; "chaos/r1"; "chaos/r0" |] in
  let dur () = if Rng.int rng 3 = 0 then 0.0 else Rng.float rng 2e-4 in
  let txns =
    List.init 200 (fun pos ->
        {
          Analyze.pos;
          seq = pos;
          server = 0;
          txn_seq = pos;
          label = labels.(Rng.int rng 3);
          committed = true;
          abort_reason = None;
          decided_at = "final_meld";
          conflict_zone = 0;
          t_submit = 1000000.0 +. Rng.float rng 1.0;
          t_done = 0.0;
          e2e = 0.0;
          wait = Array.init 4 (fun _ -> dur ());
          service = Array.init 4 (fun _ -> dur ());
        })
  in
  let origin =
    List.fold_left
      (fun m (t : Analyze.txn) -> Float.min m t.t_submit)
      infinity txns
  in
  let events =
    match
      jfield "traceEvents"
        (Json.of_string (Json.to_string (Analyze.to_chrome txns)))
    with
    | Json.List l -> l
    | _ -> Alcotest.fail "traceEvents not a list"
  in
  let pieces = List.filter (fun e -> jstring "ph" e <> "M") events in
  let us x = (x -. origin) *. 1e6 in
  let pid_of_label = Hashtbl.create 3 in
  List.iter
    (fun (t : Analyze.txn) ->
      let mine = List.filter (fun e -> jint "id" e = t.pos) pieces in
      let expected =
        List.concat
          (List.init 4 (fun s ->
               let name = Hyder_obs.Flight.stage_names.(s) in
               List.filter
                 (fun (_, d) -> d > 0.0)
                 [ (name ^ ".wait", t.wait.(s)); (name, t.service.(s)) ]))
      in
      check_int
        (Printf.sprintf "pos %d: two events per non-empty piece" t.pos)
        (2 * List.length expected) (List.length mine);
      let cursor = ref t.t_submit in
      let rec walk evs exp =
        match (evs, exp) with
        | b :: e :: evs, (name, d) :: exp ->
            check "b then e of one piece" true
              (jstring "ph" b = "b" && jstring "ph" e = "e"
              && jstring "name" b = name && jstring "name" e = name);
            check "piece starts where the previous ended" true
              (jfloat "ts" b = us !cursor);
            cursor := !cursor +. d;
            check "piece ends after its duration" true
              (jfloat "ts" e = us !cursor);
            walk evs exp
        | [], [] -> ()
        | _ -> Alcotest.fail "event/piece count mismatch"
      in
      walk mine expected;
      let all =
        Array.fold_left ( +. ) 0.0 t.wait +. Array.fold_left ( +. ) 0.0 t.service
      in
      check "tiling covers the attributed span" true
        (Float.abs (us !cursor -. us (t.t_submit +. all)) < 1e-3);
      List.iter
        (fun e ->
          let pid = jint "pid" e in
          match Hashtbl.find_opt pid_of_label t.label with
          | None -> Hashtbl.add pid_of_label t.label pid
          | Some p -> check_int "one pid per label" p pid)
        mine)
    txns;
  let pids = Hashtbl.fold (fun _ p acc -> p :: acc) pid_of_label [] in
  check_int "labels get distinct pids" (Hashtbl.length pid_of_label)
    (List.length (List.sort_uniq compare pids))

(* ------------------------------------------------------------------ *)
(* Inertness: recording on vs off is bit-identical                      *)
(* ------------------------------------------------------------------ *)

let genesis_n = 2000

(* Same stream recorder as test_runtime: snapshots lag behind the LCS so
   the stream mixes premeld-bound and premeld-skipped intentions, with
   real conflicts.  The generator is wire-fed and the stream is returned
   in wire form, [(pos, bytes)] in log order. *)
let make_stream ~config ~txns ~seed =
  let genesis = Helpers.genesis genesis_n in
  let rng = Rng.create (Int64.of_int seed) in
  let gen = Pipeline.create ~config ~genesis () in
  let history = ref [ (-1, genesis) ] in
  let hist_len = ref 1 in
  let wires = ref [] in
  let next_pos = ref 0 in
  for txn_seq = 0 to txns - 1 do
    let lag = min (Rng.int rng 80) (!hist_len - 1) in
    let snapshot_pos, snapshot = List.nth !history lag in
    let e =
      Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq
        ~isolation:I.Serializable ()
    in
    for _ = 1 to Rng.int rng 3 do
      ignore (Executor.read e (Rng.int rng genesis_n))
    done;
    for _ = 1 to 1 + Rng.int rng 2 do
      Executor.write e (Rng.int rng genesis_n) (Printf.sprintf "w%d" txn_seq)
    done;
    match Executor.finish e with
    | None -> ()
    | Some draft ->
        next_pos := !next_pos + 1 + Rng.int rng 2;
        let src = Hyder_codec.Codec.encode draft in
        wires := (!next_pos, src) :: !wires;
        ignore (Pipeline.submit gen (Pipeline.decode gen ~pos:!next_pos src));
        let _, pos, tree = Pipeline.lcs gen in
        history := (pos, tree) :: !history;
        incr hist_len
  done;
  ignore (Pipeline.flush gen);
  (genesis, List.rev !wires)

(* Replay a wire stream through a fresh pipeline, feeding
   [submit_wire_batch] in slabs of [slab] intentions. *)
let replay ?flight ~config ~slab genesis wires =
  let p = Pipeline.create ~config ?flight ~genesis () in
  let rec take k acc = function
    | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let rec go acc = function
    | [] -> acc
    | l ->
        let batch, rest = take slab [] l in
        go (List.rev_append (Pipeline.submit_wire_batch p batch) acc) rest
  in
  let decisions = List.rev (go [] wires) @ Pipeline.flush p in
  let _, _, final = Pipeline.lcs p in
  (decisions, final, Pipeline.counters p)

let same_decision (a : Pipeline.decision) (b : Pipeline.decision) =
  a.Pipeline.seq = b.Pipeline.seq
  && a.Pipeline.pos = b.Pipeline.pos
  && a.Pipeline.committed = b.Pipeline.committed
  && a.Pipeline.reason = b.Pipeline.reason
  && a.Pipeline.decided_at = b.Pipeline.decided_at

let stages (c : Counters.t) =
  Counters.
    [
      ("ds", c.deserialize);
      ("pm", c.premeld);
      ("gm", c.group_meld);
      ("fm", c.final_meld);
    ]

(* Recording every intention's lifecycle changes nothing observable,
   and neither does the slab size.  Each row replays one stream in slabs
   of its own size and compares it with an unrecorded replay in one
   batch: the same decisions, final state and premeld work, and the same
   minor words in every stage, so neither the recorder's allocations nor
   the batching are ever charged to a stage.  The recorded rows double
   as a lifecycle audit at scale: every decision closes exactly one
   record, none leak, and the commit and abort tallies agree with the
   decision stream. *)
let check_inert ~seed rows =
  let config =
    {
      Pipeline.premeld = Some { Premeld.threads = 5; distance = 10 };
      group_size = 2;
    }
  in
  let genesis, wires = make_stream ~config ~txns:300 ~seed in
  check "stream not trivial" true (List.length wires > 150);
  let bd, bfinal, bcounters = replay ~config ~slab:max_int genesis wires in
  let aborts =
    List.length (List.filter (fun d -> not d.Pipeline.committed) bd)
  in
  check "stream has aborts" true (aborts > 0);
  List.iter
    (fun (name, slab, flighted) ->
      let metrics = Metrics.create () in
      let flight =
        if flighted then Flight.create ~label:name ~metrics ()
        else Flight.disabled
      in
      let d, final, counters = replay ~flight ~config ~slab genesis wires in
      check (name ^ ": every decision closed one record") true
        (Flight.completed flight = if flighted then List.length d else 0);
      check_int (name ^ ": no records leak") 0 (Flight.in_flight flight);
      check (name ^ ": decision count") true (List.length d = List.length bd);
      check (name ^ ": decisions identical") true
        (List.for_all2 same_decision d bd);
      check (name ^ ": final state physically identical") true
        (Tree.physically_equal final bfinal);
      let pm (c : Counters.t) =
        (c.premeld.Counters.intentions, c.premeld.Counters.nodes_visited)
      in
      check (name ^ ": premeld work identical") true
        (pm counters = pm bcounters);
      check_int (name ^ ": committed tally")
        (List.length bd - aborts)
        counters.Counters.committed;
      check_int (name ^ ": aborted tally") aborts counters.Counters.aborted;
      List.iter2
        (fun (stage, (s : Counters.stage)) (_, (b : Counters.stage)) ->
          check
            (Printf.sprintf "%s: %s minor words %d = unrecorded %d" name
               stage s.minor_words b.minor_words)
            true
            (s.minor_words = b.minor_words && s.minor_words > 0))
        (stages counters) (stages bcounters);
      check_int
        (name ^ ": flight_e2e_us count agrees")
        (if flighted then List.length d else 0)
        (match List.assoc_opt "flight_e2e_us" (Metrics.snapshot metrics) with
        | Some (Metrics.Histogram_v { count; _ }) -> count
        | None -> 0))
    rows

(* Tracing is the flight recorder: traced runs in one batch and in
   slabs of 64, and an unrecorded run in slabs of 64, against the
   unrecorded one-batch replay. *)
let test_tracing_is_inert () =
  check_inert ~seed:2024
    [
      ("traced seq", max_int, true);
      ("traced seq slab 64", 64, true);
      ("unrecorded seq slab 64", 64, false);
    ]

(* The same on a second stream. *)
let test_flight_is_inert () =
  check_inert ~seed:4096
    [ ("flight seq", max_int, true); ("flight seq slab 64", 64, true) ]

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "emitter: scalars and escaping" `Quick test_json;
          Alcotest.test_case "parser: round-trip and rejection" `Quick
            test_json_parse;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram bucket boundaries" `Quick
            test_histogram_buckets;
          Alcotest.test_case "registry, snapshot, diff" `Quick test_registry;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace golden" `Quick test_chrome_golden;
        ] );
      ( "counters copy",
        [
          Alcotest.test_case "Summary.copy is independent" `Quick
            test_summary_copy;
          Alcotest.test_case "Counters.copy keeps streaming summaries" `Quick
            test_counters_copy_preserves_summaries;
        ] );
      ( "flight",
        [
          Alcotest.test_case "lifecycle, chain accounting, sink line" `Quick
            test_flight_lifecycle;
          Alcotest.test_case "benchmark reads per-stage histograms in us"
            `Quick test_flight_benchmark_histograms;
          Alcotest.test_case "analyzer report over a mixed dump" `Quick
            test_analyze_report;
          Alcotest.test_case "chrome events tile each record" `Quick
            test_chrome_tiles;
        ] );
      ( "inertness",
        [
          Alcotest.test_case "tracing on = tracing off (seq and slab 64)"
            `Quick test_tracing_is_inert;
          Alcotest.test_case "flight on = flight off (seq, slab 64)"
            `Quick test_flight_is_inert;
        ] );
    ]

(* End-to-end transaction benchmark for one Hyder server.

     dune exec benchmark/hyder_bench.exe -- [--seed N] [--workload NAME]...
       [--seconds S] [--json FILE] [--trace DIR]

   Prints [workload metric value unit] lines.  Each workload runs in its
   own process: with more than one workload this process re-executes
   itself once per workload and collects the records.  The exit code is
   non-zero when any output check fails. *)

module Bench = Hyder_benchmark.Bench
module Json = Hyder_obs.Json

let seed = ref Bench.default_seed
let names = ref []
let seconds = ref 10.0
let json_path = ref None
let trace_dir = ref None
let baseline = ref "benchmark/baseline.json"
let child = ref false

(* Set-ups per run; [setup_s] reports their median. *)
let setups = 5

let spec =
  Arg.align
    [
      ("--seed", Arg.Set_int seed, "N  Workload seed (default 42)");
      ( "--workload",
        Arg.String (fun w -> names := w :: !names),
        "NAME  Run this workload (repeatable; default: all)" );
      ( "--seconds",
        Arg.Set_float seconds,
        "S  Length of each measured window (default 10)" );
      ( "--json",
        Arg.String (fun f -> json_path := Some f),
        "FILE  Write the run records to FILE" );
      ( "--trace",
        Arg.String (fun d -> trace_dir := Some d),
        "DIR  Rerun each workload traced; spans go to DIR" );
      ( "--baseline",
        Arg.Set_string baseline,
        "FILE  Expected digests for the default seed (default \
         benchmark/baseline.json)" );
      ("--child", Arg.Set child, " Run one workload and print its record");
    ]

let usage = "hyder_bench.exe [--seed N] [--workload NAME]... [--json FILE] [--trace DIR]"

let commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let c = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    c

let field k = function Json.Obj o -> List.assoc_opt k o | _ -> None

let expected_digests name =
  if !seed <> Bench.default_seed || not (Sys.file_exists !baseline) then None
  else
    let doc =
      Json.of_string (In_channel.with_open_text !baseline In_channel.input_all)
    in
    let w = Option.bind (field "workloads" doc) (field name) in
    match
      (Option.bind w (field "decisions_digest"), Option.bind w (field "tree_digest"))
    with
    | Some (Json.String d), Some (Json.String t) -> Some (d, t)
    | _ -> None

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (m : Bench.metric) ->
         ( m.name,
           Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit) ]
         ))
       ms)

let print_metrics name ms =
  List.iter
    (fun (m : Bench.metric) ->
      Printf.printf "%s %s %.6g %s\n" name m.name m.value m.unit)
    ms

(* Run one workload in this process and return its record. *)
let run_one (w : Bench.workload) =
  let nproc = Domain.recommended_domain_count () in
  let valid = Bench.domains_used w <= nproc in
  if not valid then
    Printf.eprintf
      "%s: %d domains on %d cores, run marked invalid\n%!" w.name
      (Bench.domains_used w) nproc;
  let r = Bench.run w ~seed:!seed ~seconds:!seconds ~setups in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if r.failures > 0 then
    problem "%d decisions failed the check, first: %s" r.failures r.first_failure;
  let per_layer =
    match !trace_dir with
    | None -> r.per_layer
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let t =
          Bench.traced w ~seed:!seed ~seconds:!seconds ~dir
            ~untraced_tps:r.commit_tps
        in
        if t.failures > 0 then
          problem "traced run: %d decisions failed the check, first: %s"
            t.failures t.first_failure;
        let same =
          t.decisions_digest = r.decisions_digest && t.tree_digest = r.tree_digest
        in
        if not same then problem "traced run digests differ from untraced";
        r.per_layer @ t.per_layer
  in
  let expected =
    match expected_digests w.name with
    | None -> "not checked"
    | Some (d, t) when d = r.decisions_digest && t = r.tree_digest -> "match"
    | Some (d, t) ->
        problem "digests differ from %s: expected %s %s" !baseline d t;
        "mismatch"
  in
  print_metrics w.name r.end_to_end;
  print_metrics w.name per_layer;
  Printf.printf "%s check decisions=%s tree=%s expected=%s\n" w.name
    r.decisions_digest r.tree_digest expected;
  List.iter (Printf.printf "%s FAILED %s\n" w.name) (List.rev !problems);
  Json.Obj
    [
      ("workload", Json.String w.name);
      ("seed", Json.Int !seed);
      ("commit", Json.String (commit ()));
      ("nproc", Json.Int nproc);
      ("ocaml", Json.String Sys.ocaml_version);
      ("domains", Json.Int (Bench.domains_used w));
      ("valid", Json.Bool valid);
      ("seconds", Json.Float !seconds);
      ("warmup_txns", Json.Int r.warmup_txns);
      ("check_txns", Json.Int r.check_txns);
      ("measured_txns", Json.Int r.measured_txns);
      ("committed", Json.Int r.committed_txns);
      ("aborted", Json.Int r.aborted_txns);
      ("failures", Json.Int r.failures);
      ("decisions_digest", Json.String r.decisions_digest);
      ("tree_digest", Json.String r.tree_digest);
      ("expected_digests", Json.String expected);
      ("correct", Json.Bool (!problems = []));
      ("end_to_end", metrics_json r.end_to_end);
      ("per_layer", metrics_json per_layer);
      ( "slices",
        let col f = Json.List (List.map (fun s -> Json.Float (f s)) r.slices) in
        Json.Obj
          [
            ("seconds", Json.Float Bench.slice_s);
            ("commit_tps", col (fun s -> s.Bench.tps));
            ("p50_ms", col (fun s -> s.Bench.p50 *. 1e3));
            ("p99_ms", col (fun s -> s.Bench.p99 *. 1e3));
          ] );
    ]

(* Run one workload in a child process, echoing its metric lines; the
   child's last line is its record. *)
let spawn name =
  let args =
    [ "--child"; "--workload"; name; "--seed"; string_of_int !seed;
      "--seconds"; string_of_float !seconds; "--baseline"; !baseline ]
    @ match !trace_dir with Some d -> [ "--trace"; d ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let record = ref None in
  let rec read () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
        if String.length line > 0 && line.[0] = '{' then
          record := Json.of_string_opt line
        else print_endline line;
        read ()
  in
  read ();
  close_in ic;
  ignore (Unix.waitpid [] pid);
  match !record with
  | Some r -> r
  | None ->
      Printf.printf "%s FAILED no record from the workload process\n" name;
      Json.Obj [ ("workload", Json.String name); ("correct", Json.Bool false) ]

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let names =
    match List.rev !names with
    | [] -> List.map (fun (w : Bench.workload) -> w.name) Bench.workloads
    | l -> l
  in
  List.iter
    (fun n ->
      if Bench.find n = None then begin
        Printf.eprintf "unknown workload %s (known: %s)\n" n
          (String.concat ", "
             (List.map (fun (w : Bench.workload) -> w.name) Bench.workloads));
        exit 2
      end)
    names;
  let records =
    match names with
    | [ n ] ->
        let r = run_one (Option.get (Bench.find n)) in
        if !child then print_endline (Json.to_string r);
        [ r ]
    | _ -> List.map spawn names
  in
  let digests n =
    List.find_map
      (fun r ->
        if field "workload" r = Some (Json.String n) then
          Some (field "decisions_digest" r, field "tree_digest" r)
        else None)
      records
  in
  let agree =
    match (digests "sr-opt-1m", digests "sr-opt-1m-pipe") with
    | Some a, Some b when a <> b ->
        print_endline "sr-opt-1m-pipe FAILED digests differ from sr-opt-1m";
        false
    | _ -> true
  in
  (match !json_path with
  | Some f ->
      Out_channel.with_open_text f (fun oc ->
          Json.to_channel oc (Json.List records);
          output_char oc '\n')
  | None -> ());
  let correct = List.for_all (fun r -> field "correct" r = Some (Json.Bool true)) records in
  if not (agree && correct) then exit 1

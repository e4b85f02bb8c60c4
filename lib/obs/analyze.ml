module Sample = Hyder_util.Stats.Sample
module Table = Hyder_util.Table

let stage_names = Flight.stage_names
let n_stages = Array.length stage_names

type txn = {
  pos : int;
  seq : int;
  server : int;
  txn_seq : int;
  label : string;
  committed : bool;
  abort_reason : string option;
  decided_at : string;
  conflict_zone : int;
  t_submit : float;
  t_done : float;
  e2e : float;
  wait : float array;
  service : float array;
}

(* --- parsing ------------------------------------------------------- *)

let field obj k = match obj with Json.Obj l -> List.assoc_opt k l | _ -> None

let as_int = function
  | Some (Json.Int i) -> Some i
  | Some (Json.Float f) -> Some (int_of_float f)
  | _ -> None

let as_float = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let as_string = function Some (Json.String s) -> Some s | _ -> None
let as_bool = function Some (Json.Bool b) -> Some b | _ -> None

let stage_array j =
  match j with
  | Some (Json.Obj _ as o) ->
      let arr = Array.make n_stages 0.0 in
      let ok = ref true in
      Array.iteri
        (fun i s ->
          match as_float (field o s) with
          | Some v -> arr.(i) <- v
          | None -> ok := false)
        stage_names;
      if !ok then Some arr else None
  | _ -> None

let txn_of_json j =
  match
    ( as_int (field j "pos"),
      as_float (field j "e2e"),
      stage_array (field j "wait"),
      stage_array (field j "service") )
  with
  | Some pos, Some e2e, Some wait, Some service ->
      Some
        {
          pos;
          seq = Option.value ~default:(-1) (as_int (field j "seq"));
          server = Option.value ~default:(-1) (as_int (field j "server"));
          txn_seq = Option.value ~default:(-1) (as_int (field j "txn_seq"));
          label = Option.value ~default:"" (as_string (field j "label"));
          committed =
            Option.value ~default:false (as_bool (field j "committed"));
          abort_reason = as_string (field j "abort_reason");
          decided_at =
            Option.value ~default:"" (as_string (field j "decided_at"));
          conflict_zone =
            Option.value ~default:0 (as_int (field j "conflict_zone"));
          t_submit = Option.value ~default:0.0 (as_float (field j "t_submit"));
          t_done = Option.value ~default:0.0 (as_float (field j "t_done"));
          e2e;
          wait;
          service;
        }
  | _ -> None

let load_channel ic =
  let txns = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then
         match Json.of_string_opt line with
         | Some j -> (
             match txn_of_json j with
             | Some t -> txns := t :: !txns
             | None -> ())
         | None -> ()
     done
   with End_of_file -> ());
  List.rev !txns

let load_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> load_channel ic)

(* --- aggregation --------------------------------------------------- *)

let us x = 1e6 *. x

type stage_agg = {
  s_wait : Sample.t;
  s_service : Sample.t;
  mutable s_wait_total : float;
  mutable s_service_total : float;
}

type backend_agg = {
  b_label : string;
  mutable b_txns : txn list;  (* newest first *)
  mutable b_commits : int;
  mutable b_aborts : int;
  b_e2e : Sample.t;
  b_sum : Sample.t;  (* per-record Σ (wait + service) *)
  b_stages : stage_agg array;
  mutable b_neg_waits : int;
  (* abort reason -> decided_at -> count *)
  b_abort_matrix : (string, (string, int) Hashtbl.t) Hashtbl.t;
  mutable b_total_attr : float;  (* Σ over stages of wait + service *)
  mutable b_crit : int;
      (* critical path: the stage whose total service bounds throughput
         (the wait share points at queueing, the service share at work) *)
}

let aggregate txns =
  let backends : (string, backend_agg) Hashtbl.t = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun t ->
      let b =
        match Hashtbl.find_opt backends t.label with
        | Some b -> b
        | None ->
            let b =
              {
                b_label = t.label;
                b_txns = [];
                b_commits = 0;
                b_aborts = 0;
                b_e2e = Sample.create ();
                b_sum = Sample.create ();
                b_stages =
                  Array.init n_stages (fun _ ->
                      {
                        s_wait = Sample.create ();
                        s_service = Sample.create ();
                        s_wait_total = 0.0;
                        s_service_total = 0.0;
                      });
                b_neg_waits = 0;
                b_abort_matrix = Hashtbl.create 4;
                b_total_attr = 0.0;
                b_crit = 0;
              }
            in
            Hashtbl.add backends t.label b;
            order := t.label :: !order;
            b
      in
      b.b_txns <- t :: b.b_txns;
      if t.committed then b.b_commits <- b.b_commits + 1
      else b.b_aborts <- b.b_aborts + 1;
      Sample.add b.b_e2e t.e2e;
      let sum = ref 0.0 in
      for s = 0 to n_stages - 1 do
        let a = b.b_stages.(s) in
        Sample.add a.s_wait t.wait.(s);
        Sample.add a.s_service t.service.(s);
        a.s_wait_total <- a.s_wait_total +. t.wait.(s);
        a.s_service_total <- a.s_service_total +. t.service.(s);
        if t.wait.(s) < 0.0 || t.service.(s) < 0.0 then
          b.b_neg_waits <- b.b_neg_waits + 1;
        sum := !sum +. t.wait.(s) +. t.service.(s)
      done;
      Sample.add b.b_sum !sum;
      if not t.committed then begin
        let reason = Option.value ~default:"unknown" t.abort_reason in
        let row =
          match Hashtbl.find_opt b.b_abort_matrix reason with
          | Some r -> r
          | None ->
              let r = Hashtbl.create 4 in
              Hashtbl.add b.b_abort_matrix reason r;
              r
        in
        Hashtbl.replace row t.decided_at
          (1 + Option.value ~default:0 (Hashtbl.find_opt row t.decided_at))
      end)
    txns;
  List.rev_map
    (fun label ->
      let b = Hashtbl.find backends label in
      Array.iteri
        (fun s a ->
          b.b_total_attr <-
            b.b_total_attr +. a.s_wait_total +. a.s_service_total;
          if a.s_service_total > b.b_stages.(b.b_crit).s_service_total then
            b.b_crit <- s)
        b.b_stages;
      b)
    !order

let pct s p = if Sample.count s = 0 then 0.0 else Sample.percentile s p

(* Fraction of the label's attributed time [x] accounts for. *)
let share b x = if b.b_total_attr <= 0.0 then 0.0 else x /. b.b_total_attr

let coverage_p50 b =
  let e2e_p50 = pct b.b_e2e 50.0 in
  if e2e_p50 <= 0.0 then 1.0 else pct b.b_sum 50.0 /. e2e_p50

let sample_obj s =
  Json.Obj
    [
      ("mean", Json.Float (us (if Sample.count s = 0 then 0.0 else Sample.mean s)));
      ("p50", Json.Float (us (pct s 50.0)));
      ("p95", Json.Float (us (pct s 95.0)));
      ("p99", Json.Float (us (pct s 99.0)));
    ]

let dominant_stage t =
  let best = ref 0 and best_v = ref neg_infinity in
  for s = 0 to n_stages - 1 do
    let v = t.wait.(s) +. t.service.(s) in
    if v > !best_v then begin
      best := s;
      best_v := v
    end
  done;
  (stage_names.(!best), !best_v)

let slowest ~top_k txns =
  let arr = Array.of_list txns in
  Array.sort (fun a b -> Float.compare b.e2e a.e2e) arr;
  Array.to_list (Array.sub arr 0 (min top_k (Array.length arr)))

let abort_matrix_json b =
  Hashtbl.fold
    (fun reason row acc ->
      let cells =
        Hashtbl.fold (fun at n acc -> (at, Json.Int n) :: acc) row []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let total = Hashtbl.fold (fun _ n acc -> acc + n) row 0 in
      Json.Obj
        [
          ("reason", Json.String reason);
          ("total", Json.Int total);
          ("decided_at", Json.Obj cells);
        ]
      :: acc)
    b.b_abort_matrix []
  |> List.sort (fun a b ->
         match (a, b) with
         | Json.Obj af, Json.Obj bf -> (
             match (List.assoc "reason" af, List.assoc "reason" bf) with
             | Json.String x, Json.String y -> String.compare x y
             | _ -> 0)
         | _ -> 0)

let backend_json ~top_k b =
  let stages =
    Array.to_list
      (Array.mapi
         (fun s a ->
           Json.Obj
             [
               ("stage", Json.String stage_names.(s));
               ("wait_us", sample_obj a.s_wait);
               ("service_us", sample_obj a.s_service);
               ("wait_total_us", Json.Float (us a.s_wait_total));
               ("service_total_us", Json.Float (us a.s_service_total));
               ( "share",
                 Json.Float (share b (a.s_wait_total +. a.s_service_total)) );
             ])
         b.b_stages)
  in
  let slow =
    List.map
      (fun t ->
        let dom, dom_s = dominant_stage t in
        Json.Obj
          [
            ("pos", Json.Int t.pos);
            ("seq", Json.Int t.seq);
            ("e2e_us", Json.Float (us t.e2e));
            ("committed", Json.Bool t.committed);
            ("dominant_stage", Json.String dom);
            ("dominant_us", Json.Float (us dom_s));
            ( "wait_us",
              Json.Obj
                (Array.to_list
                   (Array.mapi
                      (fun s name -> (name, Json.Float (us t.wait.(s))))
                      stage_names)) );
            ( "service_us",
              Json.Obj
                (Array.to_list
                   (Array.mapi
                      (fun s name -> (name, Json.Float (us t.service.(s))))
                      stage_names)) );
          ])
      (slowest ~top_k b.b_txns)
  in
  Json.Obj
    [
      ("label", Json.String b.b_label);
      ("txns", Json.Int (Sample.count b.b_e2e));
      ("commits", Json.Int b.b_commits);
      ("aborts", Json.Int b.b_aborts);
      ("e2e_us", sample_obj b.b_e2e);
      ("stage_sum_us", sample_obj b.b_sum);
      ("coverage_p50", Json.Float (coverage_p50 b));
      ("negative_waits", Json.Int b.b_neg_waits);
      ("stages", Json.List stages);
      ( "critical_path",
        Json.Obj
          [
            ("stage", Json.String stage_names.(b.b_crit));
            ( "service_share",
              Json.Float (share b b.b_stages.(b.b_crit).s_service_total) );
          ] );
      ("abort_reasons", Json.List (abort_matrix_json b));
      ("slowest", Json.List slow);
    ]

let report ?(top_k = 10) txns =
  let backends = aggregate txns in
  Json.Obj
    [
      ("total", Json.Int (List.length txns));
      ("backends", Json.List (List.map (backend_json ~top_k) backends));
    ]

(* --- Chrome export --------------------------------------------------- *)

let display_label l = if l = "" then "(unlabeled)" else l

let to_chrome txns =
  let origin =
    List.fold_left (fun acc (t : txn) -> Float.min acc t.t_submit) infinity txns
  in
  let pids = Hashtbl.create 4 in
  let meta =
    List.filter_map
      (fun (t : txn) ->
        if Hashtbl.mem pids t.label then None
        else begin
          let pid = Hashtbl.length pids + 1 in
          Hashtbl.add pids t.label pid;
          Some
            (Json.Obj
               [
                 ("name", Json.String "process_name");
                 ("ph", Json.String "M");
                 ("pid", Json.Int pid);
                 ( "args",
                   Json.Obj [ ("name", Json.String (display_label t.label)) ] );
               ])
        end)
      txns
  in
  (* Nestable async pieces keyed by log position, laid end to end from
     the submit time in stage order — the same layout as the benchmark's
     traces, so both read the same way in Perfetto. *)
  let txn_events (t : txn) =
    let pid = Hashtbl.find pids t.label in
    let ev ph name at =
      Json.Obj
        [
          ("name", Json.String name);
          ("cat", Json.String "txn");
          ("ph", Json.String ph);
          ("id", Json.Int t.pos);
          ("ts", Json.Float (us (at -. origin)));
          ("pid", Json.Int pid);
          ("tid", Json.Int 1);
        ]
    in
    let cursor = ref t.t_submit in
    let piece name d =
      if d <= 0.0 then []
      else begin
        let a = !cursor in
        cursor := a +. d;
        [ ev "b" name a; ev "e" name !cursor ]
      end
    in
    List.concat
      (List.init n_stages (fun s ->
           let name = stage_names.(s) in
           let w = piece (name ^ ".wait") t.wait.(s) in
           w @ piece name t.service.(s)))
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ List.concat_map txn_events txns));
      ("displayTimeUnit", Json.String "ms");
    ]

(* --- human rendering ----------------------------------------------- *)

let fus x = Printf.sprintf "%.1f" (us x)

let print_backend ~top_k b =
  let n = Sample.count b.b_e2e in
  Printf.printf "\n=== %s: %d txns (%d commits, %d aborts) ===\n"
    (display_label b.b_label)
    n b.b_commits b.b_aborts;
  Printf.printf
    "e2e latency us: p50 %s  p95 %s  p99 %s   (stage-sum p50 %s, coverage %.3f)\n"
    (fus (pct b.b_e2e 50.0))
    (fus (pct b.b_e2e 95.0))
    (fus (pct b.b_e2e 99.0))
    (fus (pct b.b_sum 50.0))
    (coverage_p50 b);
  let tbl =
    Table.create
      ~title:(Printf.sprintf "stage waterfall (%s)" b.b_label)
      ~columns:
        [
          "stage";
          "wait mean us";
          "wait p95 us";
          "svc mean us";
          "svc p95 us";
          "share %";
        ]
  in
  Array.iteri
    (fun s a ->
      Table.add_row tbl
        [
          stage_names.(s);
          fus (if Sample.count a.s_wait = 0 then 0.0 else Sample.mean a.s_wait);
          fus (pct a.s_wait 95.0);
          fus
            (if Sample.count a.s_service = 0 then 0.0
             else Sample.mean a.s_service);
          fus (pct a.s_service 95.0);
          Printf.sprintf "%.1f"
            (100.0 *. share b (a.s_wait_total +. a.s_service_total));
        ])
    b.b_stages;
  Table.print tbl;
  Printf.printf "critical path: %s (%.1f%% of attributed service time)\n"
    stage_names.(b.b_crit)
    (100.0 *. share b b.b_stages.(b.b_crit).s_service_total);
  if Hashtbl.length b.b_abort_matrix > 0 then begin
    let tbl =
      Table.create ~title:"abort reasons x deciding stage"
        ~columns:[ "reason"; "premeld"; "group_meld"; "final_meld"; "total" ]
    in
    let reasons =
      Hashtbl.fold (fun r _ acc -> r :: acc) b.b_abort_matrix []
      |> List.sort String.compare
    in
    List.iter
      (fun r ->
        let row = Hashtbl.find b.b_abort_matrix r in
        let cell at =
          string_of_int (Option.value ~default:0 (Hashtbl.find_opt row at))
        in
        let total = Hashtbl.fold (fun _ n acc -> acc + n) row 0 in
        Table.add_row tbl
          [
            r;
            cell "premeld";
            cell "group_meld";
            cell "final_meld";
            string_of_int total;
          ])
      reasons;
    Table.print tbl
  end;
  let tbl =
    Table.create
      ~title:(Printf.sprintf "top %d slowest" top_k)
      ~columns:[ "pos"; "seq"; "e2e us"; "dominant"; "dominant us"; "fate" ]
  in
  List.iter
    (fun t ->
      let dom, dom_s = dominant_stage t in
      Table.add_row tbl
        [
          string_of_int t.pos;
          string_of_int t.seq;
          fus t.e2e;
          dom;
          fus dom_s;
          (if t.committed then "commit"
           else "abort:" ^ Option.value ~default:"?" t.abort_reason);
        ])
    (slowest ~top_k b.b_txns);
  Table.print tbl

let print_report ?(top_k = 10) txns =
  if txns = [] then print_endline "no flight records"
  else List.iter (print_backend ~top_k) (aggregate txns)

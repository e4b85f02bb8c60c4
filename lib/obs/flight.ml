type stage = Ds | Pm | Gm | Fm

let stage_index = function Ds -> 0 | Pm -> 1 | Gm -> 2 | Fm -> 3
let stage_names = [| "ds"; "pm"; "gm"; "fm" |]
let n_stages = 4

type record = {
  pos : int;
  mutable seq : int;
  mutable server : int;
  mutable txn_seq : int;
  mutable t_submit : float;
  mutable t_last : float;
  mutable t_done : float;
  wait : float array;
  service : float array;
  mutable committed : bool;
  mutable abort_reason : string;
  mutable decided_at : string;
  mutable conflict_zone : int;
  mutable sim_submit : float;
  mutable sim_append : float;
  mutable sim_deliver : float;
}

(* Metrics instruments, resolved once at create time (same idiom as the
   pipeline's).  Histograms are in microseconds: the registry's log2
   buckets floor at 2^-16 ≈ 15µs, which would fold every sub-15µs stage
   time into bucket 0 if observed in seconds. *)
type instruments = {
  i_wait : Metrics.Histogram.t array;  (* per stage *)
  i_service : Metrics.Histogram.t array;
  i_e2e : Metrics.Histogram.t;
  i_total : Metrics.Counter.t;
  i_p50 : Metrics.Gauge.t;
  i_p95 : Metrics.Gauge.t;
  i_p99 : Metrics.Gauge.t;
}

type t = {
  on : bool;
  lbl : string;
  records : (int, record) Hashtbl.t;
  inst : instruments option;
  sink : out_channel option;
  e2e : Hyder_util.Stats.Sample.t;  (* seconds; exact percentiles *)
  mutable done_n : int;
}

let disabled =
  {
    on = false;
    lbl = "";
    records = Hashtbl.create 1;
    inst = None;
    sink = None;
    e2e = Hyder_util.Stats.Sample.create ();
    done_n = 0;
  }

let make_instruments m =
  {
    i_wait =
      Array.map
        (fun s -> Metrics.histogram m (Printf.sprintf "flight_%s_wait_us" s))
        stage_names;
    i_service =
      Array.map
        (fun s -> Metrics.histogram m (Printf.sprintf "flight_%s_service_us" s))
        stage_names;
    i_e2e = Metrics.histogram m "flight_e2e_us";
    i_total = Metrics.counter m "flight_records_total";
    i_p50 = Metrics.gauge m "flight_e2e_p50_us";
    i_p95 = Metrics.gauge m "flight_e2e_p95_us";
    i_p99 = Metrics.gauge m "flight_e2e_p99_us";
  }

let create ?(label = "") ?metrics ?sink () =
  {
    on = true;
    lbl = label;
    records = Hashtbl.create 1024;
    inst = Option.map make_instruments metrics;
    sink;
    e2e = Hyder_util.Stats.Sample.create ();
    done_n = 0;
  }

let enabled t = t.on
let label t = t.lbl
let in_flight t = Hashtbl.length t.records
let completed t = t.done_n

let fresh ~pos ~now =
  {
    pos;
    seq = -1;
    server = -1;
    txn_seq = -1;
    t_submit = now;
    t_last = now;
    t_done = Float.nan;
    wait = Array.make n_stages 0.0;
    service = Array.make n_stages 0.0;
    committed = false;
    abort_reason = "";
    decided_at = "";
    conflict_zone = 0;
    sim_submit = -1.0;
    sim_append = -1.0;
    sim_deliver = -1.0;
  }

let find_or_open t ~pos ~now =
  match Hashtbl.find_opt t.records pos with
  | Some r -> r
  | None ->
      let r = fresh ~pos ~now in
      Hashtbl.add t.records pos r;
      r

let touch t ~pos ~now = if t.on then ignore (find_or_open t ~pos ~now)

let note_identity t ~pos ~server ~txn_seq =
  if t.on then
    match Hashtbl.find_opt t.records pos with
    | None -> ()
    | Some r ->
        r.server <- server;
        r.txn_seq <- txn_seq

let edge t ~pos ~stage ~t0 ~t1 =
  if t.on then begin
    let r = find_or_open t ~pos ~now:t0 in
    let s = stage_index stage in
    r.wait.(s) <- r.wait.(s) +. Float.max 0.0 (t0 -. r.t_last);
    r.service.(s) <- r.service.(s) +. Float.max 0.0 (t1 -. t0);
    r.t_last <- Float.max r.t_last t1
  end

let sim_edge t ~pos ~at x =
  if t.on then
    match Hashtbl.find_opt t.records pos with
    | None -> ()
    | Some r -> (
        match at with
        | `Submit -> r.sim_submit <- x
        | `Append -> r.sim_append <- x
        | `Deliver -> if r.sim_deliver < 0.0 then r.sim_deliver <- x)

let us x = 1e6 *. x

let stage_obj arr =
  Json.Obj
    (Array.to_list (Array.mapi (fun i s -> (s, Json.Float arr.(i))) stage_names))

let record_to_json ~label (r : record) =
  let base =
    [
      ("pos", Json.Int r.pos);
      ("seq", Json.Int r.seq);
      ("server", Json.Int r.server);
      ("txn_seq", Json.Int r.txn_seq);
      ("label", Json.String label);
      ("committed", Json.Bool r.committed);
      ( "abort_reason",
        if r.abort_reason = "" then Json.Null else Json.String r.abort_reason );
      ("decided_at", Json.String r.decided_at);
      ("conflict_zone", Json.Int r.conflict_zone);
      ("t_submit", Json.Float r.t_submit);
      ("t_done", Json.Float r.t_done);
      ("e2e", Json.Float (r.t_done -. r.t_submit));
      ("wait", stage_obj r.wait);
      ("service", stage_obj r.service);
    ]
  in
  let sim =
    if r.sim_submit < 0.0 && r.sim_append < 0.0 && r.sim_deliver < 0.0 then []
    else
      [
        ( "sim",
          Json.Obj
            [
              ("submit", Json.Float r.sim_submit);
              ("append", Json.Float r.sim_append);
              ("deliver", Json.Float r.sim_deliver);
            ] );
      ]
  in
  Json.Obj (base @ sim)

let complete t ~pos ~now ~seq ~committed ~reason ~decided_at ~conflict_zone =
  if t.on then
    match Hashtbl.find_opt t.records pos with
    | None -> ()
    | Some r ->
        Hashtbl.remove t.records pos;
        r.seq <- seq;
        r.t_done <- Float.max r.t_last now;
        r.committed <- committed;
        r.abort_reason <- reason;
        r.decided_at <- decided_at;
        r.conflict_zone <- conflict_zone;
        t.done_n <- t.done_n + 1;
        let e2e = r.t_done -. r.t_submit in
        Hyder_util.Stats.Sample.add t.e2e e2e;
        (match t.inst with
        | None -> ()
        | Some i ->
            Metrics.Counter.incr i.i_total;
            Metrics.Histogram.observe i.i_e2e (us e2e);
            for s = 0 to n_stages - 1 do
              Metrics.Histogram.observe i.i_wait.(s) (us r.wait.(s));
              Metrics.Histogram.observe i.i_service.(s) (us r.service.(s))
            done);
        (match t.sink with
        | None -> ()
        | Some oc ->
            Json.to_channel oc (record_to_json ~label:t.lbl r);
            output_char oc '\n')

let export_percentiles t =
  match t.inst with
  | None -> ()
  | Some i ->
      if Hyder_util.Stats.Sample.count t.e2e > 0 then begin
        let p q = us (Hyder_util.Stats.Sample.percentile t.e2e q) in
        Metrics.Gauge.set i.i_p50 (p 50.0);
        Metrics.Gauge.set i.i_p95 (p 95.0);
        Metrics.Gauge.set i.i_p99 (p 99.0)
      end

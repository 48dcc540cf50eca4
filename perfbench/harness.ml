(* What every workload shares: the clock, layer spans, the closed loop
   over whole rounds, summary statistics, process memory, and the result
   record main.ml prints. *)

let now_ns = Mdp_obs.Clock.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6

(* ----- layer spans ----- *)

(* A tracer sums each layer's self time: a span's duration minus the part
   of it that nested spans cover. Untraced, [span] is a plain call, so the
   timed code is the same in both runs. *)
type tracer = {
  on : bool;
  self_ns : (string, int ref) Hashtbl.t;
  calls : (string, int ref) Hashtbl.t;
  sums : (string, float ref) Hashtbl.t;  (** layer counts, summed *)
  mutable child_ns : int;  (** time covered by children of the open span *)
}

let tracer on =
  {
    on;
    self_ns = Hashtbl.create 32;
    calls = Hashtbl.create 32;
    sums = Hashtbl.create 32;
    child_ns = 0;
  }

let bump tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + v
  | None -> Hashtbl.add tbl key (ref v)

let span tr name f =
  if not tr.on then f ()
  else begin
    let outer = tr.child_ns in
    tr.child_ns <- 0;
    let t0 = now_ns () in
    let finish () =
      let d = now_ns () - t0 in
      bump tr.self_ns name (d - tr.child_ns);
      bump tr.calls name 1;
      tr.child_ns <- outer + d
    in
    Fun.protect ~finally:finish f
  end

(* Attribute a measured interval to a span name directly, for a layer
   whose class is only known once the call returns. *)
let add_self tr name ns =
  bump tr.self_ns name ns;
  bump tr.calls name 1

let self_ns tr name =
  match Hashtbl.find_opt tr.self_ns name with Some r -> !r | None -> 0

let calls tr name =
  match Hashtbl.find_opt tr.calls name with Some r -> !r | None -> 0

(* Add to a layer count; only the traced run keeps counts. *)
let count tr name v =
  if tr.on then
    match Hashtbl.find_opt tr.sums name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add tr.sums name (ref v)

let sum tr name =
  match Hashtbl.find_opt tr.sums name with Some r -> !r | None -> 0.0

let total_self_ns tr = Hashtbl.fold (fun _ r acc -> acc + !r) tr.self_ns 0

(* ----- statistics ----- *)

(* Linear interpolation between closest ranks. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "percentile: no samples";
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  percentile a 0.5

let mean_or_zero total n = if n = 0 then 0.0 else total /. float_of_int n

(* ----- memory ----- *)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
      in
      scan ())

let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

(* ----- closed loop over whole rounds ----- *)

(* Runs [round] back to back for about [seconds]. Rounds are never cut:
   another starts only while time remains and at least half a mean round
   fits in it, so every run attempts a whole number of the same rounds. *)
let loop_rounds ~seconds round =
  let budget = int_of_float (seconds *. 1e9) in
  let t0 = now_ns () in
  let n = ref 0 in
  let again () =
    let el = now_ns () - t0 in
    !n = 0 || (el < budget && 2 * (budget - el) * !n >= el)
  in
  while again () do
    round !n;
    incr n
  done;
  (!n, now_ns () - t0)

(* ----- operation records ----- *)

(* Every round of a workload has the same make-up. The end-to-end
   statistics are taken per round and reported as the median over the
   run's rounds, so a slow stretch of the host that covers fewer than half
   of them does not move them. *)
type round = {
  sorted : float array;  (** latencies in ms of its successful operations *)
  round_ok : int;
  round_ns : int;  (** wall time from its first operation's start to its end *)
}

(* Timed operations: latency in ms, and whether they failed; [lat] holds
   the whole phase, [open_lat] the round being timed. *)
type samples = {
  mutable lat : float list;
  mutable ok : int;
  mutable failed : int;
  mutable open_lat : float list;
  mutable open_ok : int;
  mutable per_round : round list;
}

let samples () =
  { lat = []; ok = 0; failed = 0; open_lat = []; open_ok = 0; per_round = [] }

let record s ~ok ns =
  if ok then begin
    let ms = ms_of_ns ns in
    s.lat <- ms :: s.lat;
    s.open_lat <- ms :: s.open_lat;
    s.ok <- s.ok + 1;
    s.open_ok <- s.open_ok + 1
  end
  else s.failed <- s.failed + 1

(* Ends the open round, which took [ns] of wall time. *)
let close_round s ~ns =
  let sorted = Array.of_list s.open_lat in
  Array.sort compare sorted;
  if s.open_ok > 0 then
    s.per_round <-
      { sorted; round_ok = s.open_ok; round_ns = ns } :: s.per_round;
  s.open_lat <- [];
  s.open_ok <- 0

(* ----- in-process timed phases ----- *)

type phase = {
  s : samples;
  rounds : int;
  op_ns : int;  (** summed wall time of the operations themselves *)
  alloc_bytes : float;
  major_collections : int;
}

let ops_of p = p.s.ok + p.s.failed

(* Whole rounds for about [seconds]; [ops r] is round [r]'s operations,
   each returning whether it succeeded. *)
let phase ~seconds tr (ops : int -> (tracer -> bool) array) =
  (* every phase starts from a compacted heap *)
  Gc.compact ();
  let s = samples () in
  let op_ns = ref 0 in
  let a0 = allocated_bytes () in
  let g0 = (Gc.quick_stat ()).Gc.major_collections in
  let rounds, _ =
    loop_rounds ~seconds (fun r ->
        let r0 = now_ns () in
        Array.iter
          (fun op ->
            let t0 = now_ns () in
            let ok = op tr in
            let d = now_ns () - t0 in
            op_ns := !op_ns + d;
            record s ~ok d)
          (ops r);
        close_round s ~ns:(now_ns () - r0))
  in
  {
    s;
    rounds;
    op_ns = !op_ns;
    alloc_bytes = allocated_bytes () -. a0;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - g0;
  }

(* The traced run: an untraced phase and a traced one of the same rounds,
   half the time each. Returns the traced phase with the metrics every
   in-process workload shares: layer self time per operation for each
   span, the GC figures, the span coverage of operation wall time and the
   tracing overhead. *)
let traced_phases ~seconds ops =
  let untraced = phase ~seconds:(seconds /. 2.) (tracer false) ops in
  let tr = tracer true in
  let traced = phase ~seconds:(seconds /. 2.) tr ops in
  let n = float_of_int (ops_of traced) in
  let per_op ns = ms_of_ns ns /. n in
  let spans =
    Hashtbl.fold
      (fun name r acc ->
        let metric = if name = "render" then "render.ms" else name ^ "_ms" in
        (metric, per_op !r) :: acc)
      tr.self_ns []
  in
  let mean_op p = float_of_int p.op_ns /. float_of_int (ops_of p) in
  let shared =
    [
      ("gc.alloc_mb_per_op", traced.alloc_bytes /. 1e6 /. n);
      ("gc.major_collections", float_of_int traced.major_collections /. n);
      ( "trace.coverage",
        float_of_int (total_self_ns tr) /. float_of_int traced.op_ns );
      ("trace.overhead", mean_op traced /. mean_op untraced);
    ]
  in
  (tr, untraced, traced, spans @ shared)

(* ----- results ----- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Latency percentiles over slots, for a workload whose rounds hold the
   same operations in the same slots, each with inputs of its own: a
   slot's latency is its median over the run's rounds, and the
   percentiles are taken over the slots. *)
let slot_percentiles (slots : float list array) =
  let a =
    Array.of_list
      (List.filter_map
         (function [] -> None | l -> Some (median l))
         (Array.to_list slots))
  in
  Array.sort compare a;
  (percentile a 0.5, percentile a 0.8)

(* End-to-end metrics of an untraced timed phase. Each round gives its
   latency percentiles, over the operations that succeeded, and its
   throughput, those operations per second of the round; each metric is
   the median of its round values. [latency] replaces the round
   percentiles. *)
let end_to_end ?latency ~setup_s ~peak_rss_mb s =
  if s.per_round = [] then failwith "end_to_end: no round succeeded";
  let over_rounds f = median (List.map f s.per_round) in
  let p50, p80 =
    match latency with
    | Some l -> l
    | None ->
      ( over_rounds (fun r -> percentile r.sorted 0.5),
        over_rounds (fun r -> percentile r.sorted 0.8) )
  in
  [
    m "setup_s" "s" (median setup_s);
    m "latency_p50_ms" "ms" p50;
    m "latency_p80_ms" "ms" p80;
    m "throughput_ops_s" "1/s"
      (over_rounds (fun r ->
           float_of_int r.round_ok /. Mdp_obs.Clock.ns_to_s r.round_ns));
    m "peak_rss_mb" "MB" peak_rss_mb;
  ]

(* The layer metrics every workload reports; a layer the workload does
   not call reads 0. *)
let per_layer_names =
  [
    ("dsl.parse_ms", "ms"); ("universe.make_ms", "ms");
    ("generate.compile_ms", "ms"); ("lts.explore_ms", "ms");
    ("lts.states", "count"); ("lts.transitions", "count");
    ("lts.states_per_s", "1/s"); ("lts.bytes_per_state", "B");
    ("risk_plan.compile_ms", "ms"); ("risk_plan.analyse_ms", "ms");
    ("risk_plan.entries", "count"); ("risk_plan.labels", "count");
    ("risk_plan.entries_per_label", "ratio"); ("pseudonym.analyse_ms", "ms");
    ("consistency.check_ms", "ms"); ("render.ms", "ms"); ("render.bytes", "B");
    ("population.simulate_ms", "ms"); ("population.classes_ms", "ms");
    ("population.analyse_ms", "ms"); ("population.profiles_per_class", "ratio");
    ("whatif.prepare_ms", "ms");
    ("whatif.eval_ms.unchanged", "ms"); ("whatif.eval_ms.delta", "ms");
    ("whatif.eval_ms.replay", "ms"); ("whatif.eval_ms.cone", "ms");
    ("whatif.eval_ms.full_rerun", "ms");
    ("whatif.count.unchanged", "count"); ("whatif.count.delta", "count");
    ("whatif.count.replay", "count"); ("whatif.count.cone", "count");
    ("whatif.count.full_rerun", "count");
    ("regen.make_patch_ms", "ms"); ("regen.walk_ms", "ms");
    ("regen.refused", "count");
    ("serve.engine_ms", "ms"); ("serve.transport_ms", "ms");
    ("serve.result_hit_ratio", "ratio"); ("serve.artifact_hit_ratio", "ratio");
    ("serve.response_bytes", "B");
    ("gc.alloc_mb_per_op", "MB"); ("gc.major_collections", "count/op");
    ("trace.coverage", "ratio"); ("trace.overhead", "ratio");
  ]

(* Fill the per-layer list from [values]; names it lacks read 0. *)
let per_layer values =
  List.map
    (fun (name, unit_) ->
      m name unit_ (Option.value (List.assoc_opt name values) ~default:0.0))
    per_layer_names

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line r =
  let metric x =
    if not (Float.is_finite x.value) then
      failwith (Printf.sprintf "metric %s is not finite" x.name);
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
      (json_number x.value) x.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

(* ----- output checks ----- *)

(* Checks run after the timed phase; each failure is reported on stderr
   and makes the result incorrect. *)
type checks = { mutable passed : int; mutable failures : string list }

let checks () = { passed = 0; failures = [] }

let check c name ok =
  if ok then c.passed <- c.passed + 1
  else begin
    c.failures <- name :: c.failures;
    Printf.eprintf "check failed: %s\n%!" name
  end

let all_passed c = c.failures = [] && c.passed > 0

(* ----- an in-process workload, start to end ----- *)

(* Set-up is short and starts cold, so a run times it several times. *)
let setups_per_run = 5

(* [setup] returns its own duration in seconds, the workload state and the
   operations of round [r] as a function of [r]. It runs [setups_per_run]
   times; set-up time is the median, and the last state is the one
   measured. Checks run after the timed phase, once peak RSS has been
   read, so they add nothing to it. [layers] turns the traced run's tracer
   into workload-specific layer metrics. *)
let measure ~seconds ~trace ~setup ~checks ~layers =
  let rec setups i acc =
    let s, state, ops = setup () in
    if i = 1 then (List.rev (s :: acc), state, ops)
    else begin
      Gc.full_major ();
      setups (i - 1) (s :: acc)
    end
  in
  let setup_s, state, ops = setups setups_per_run [] in
  if not trace then begin
    let p = phase ~seconds (tracer false) ops in
    let rss = peak_rss_mb () in
    let c = checks state in
    {
      correct = all_passed c && p.s.ok > 0;
      attempted = ops_of p;
      failed = p.s.failed;
      metrics = end_to_end ~setup_s ~peak_rss_mb:rss p.s;
    }
  end
  else begin
    let tr, untraced, traced, shared = traced_phases ~seconds ops in
    let c = checks state in
    {
      correct = all_passed c && traced.s.ok > 0;
      attempted = ops_of untraced + ops_of traced;
      failed = untraced.s.failed + traced.s.failed;
      metrics = per_layer (layers state tr traced @ shared);
    }
  end

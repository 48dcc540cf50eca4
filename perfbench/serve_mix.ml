(* serve-mix: analysis requests to a real `mdpriv serve` daemon (default
   configuration, 2 workers) over its stdin/stdout pipes, one request at a
   time (see [in_flight]). The mix is risk, lts, population and whatif on
   paper and small synthetic models; a fixed share are exact repeats, each
   sent only after its original's answer has arrived. *)

module Core = Mdp_core
module H = Harness
module Json = Mdp_prelude.Json
module Prng = Mdp_prelude.Prng

let daemon_exe = "_build/default/bin/mdpriv.exe"

(* ----- the daemon ----- *)

type daemon = { pid : int; to_d : out_channel; from_d : in_channel }

(* The daemon not yet stopped, killed if the harness exits early. *)
let running = ref None

let kill_running () =
  Option.iter
    (fun d ->
      running := None;
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid))
    !running

let () = at_exit kill_running

let start () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process daemon_exe [| daemon_exe; "serve" |] in_r out_w
      Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let d =
    {
      pid;
      to_d = Unix.out_channel_of_descr in_w;
      from_d = Unix.in_channel_of_descr out_r;
    }
  in
  running := Some d;
  d

let send d line =
  output_string d.to_d line;
  output_char d.to_d '\n';
  flush d.to_d

let recv d = input_line d.from_d

(* Drain on shutdown and wait for the daemon to exit. *)
let stop d =
  send d {|{"id":"bye","cmd":"shutdown"}|};
  close_out d.to_d;
  (try
     while true do
       ignore (recv d)
     done
   with End_of_file -> ());
  close_in d.from_d;
  ignore (Unix.waitpid [] d.pid);
  running := None

(* A response line is the header fields followed by the body; the header
   is parsed, the body kept as the bytes the daemon wrote. *)
let body_marker = {|,"body":|}

let body_start line =
  let n = String.length line and m = String.length body_marker in
  let rec go i =
    if i + m > n then failwith ("response without a body: " ^ line)
    else if String.sub line i m = body_marker then i + m
    else go (i + 1)
  in
  go 0

type response = {
  id : string;
  status : string;
  cached : bool;
  elapsed_ms : float;
  line : string;
  body_at : int;
}

let parse_response line =
  let body_at = body_start line in
  let header =
    match
      Json.of_string
        (String.sub line 0 (body_at - String.length body_marker) ^ "}")
    with
    | Ok j -> j
    | Error e -> failwith ("bad response header: " ^ e)
  in
  let field name = Json.member name header in
  {
    id = Option.value (Option.bind (field "id") Json.to_str_opt) ~default:"";
    status =
      Option.value (Option.bind (field "status") Json.to_str_opt) ~default:"";
    cached = field "cached" = Some (Json.Bool true);
    elapsed_ms =
      (match field "elapsed_ms" with Some (Json.Num f) -> f | _ -> nan);
    line;
    body_at;
  }

let body r = String.sub r.line r.body_at (String.length r.line - r.body_at - 1)

let same_body a b =
  String.length a.line - a.body_at = String.length b.line - b.body_at
  && body a = body b

(* ----- the request mix ----- *)

type model = {
  name : string;  (** as the request names it *)
  fields : string list;
  services : string list;
  edits : string list;  (** single-ACL what-if candidates *)
}

let paper_models =
  [ "models/healthcare.mdp"; "models/smart_home.mdp"; "models/rides.mdp";
    "models/research_study.mdp" ]

(* 172 to 1,097 states; risk bodies up to ~1.8 MB. *)
let synthetic_models =
  [ "synthetic:6-8-5@1"; "synthetic:6-8-5@2"; "synthetic:6-8-5@3";
    "synthetic:6-8-5@4"; "synthetic:7-9-5@2" ]

(* A model as the daemon resolves the name: synthetic spec or file. *)
let model_of_name name =
  match Mdp_scenario.Synthetic.spec_of_string name with
  | Some (Ok s) -> Mdp_scenario.Synthetic.model s
  | Some (Error e) -> failwith e
  | None -> (
    match
      Mdp_dsl.Parser.parse (In_channel.with_open_bin name In_channel.input_all)
    with
    | Ok m -> (m.diagram, m.policy)
    | Error e -> failwith (name ^ ": " ^ e))

let load name =
  let diagram, policy = model_of_name name in
  let services =
    List.map (fun (s : Mdp_dataflow.Service.t) -> s.id) diagram.services
  in
  let fields =
    List.filter_map
      (fun f ->
        if Mdp_dataflow.Field.is_anon f then None
        else Some (Mdp_dataflow.Field.name f))
      (Mdp_dataflow.Diagram.all_fields diagram)
  in
  let profile =
    Core.User_profile.make
      ~sensitivities:
        (List.map (fun f -> (Mdp_dataflow.Field.of_name f, 0.9)) fields)
      ~agreed_services:[] ()
  in
  (* Candidates on anonymised fields print as specs that do not parse back
     to the same edit (see CHANGES.md), so only specs that apply as parsed
     go into the mix. *)
  let analysis = Core.Analysis.run ~profile diagram policy in
  let applies spec =
    match Core.Edit.parse spec with
    | Ok e -> Result.is_ok (Core.Edit.apply (Core.Analysis.inputs_of analysis) e)
    | Error _ -> false
  in
  let edits =
    match Core.Whatif.prepare analysis with
    | Ok b ->
      List.filter applies
        (List.map Core.Edit.to_string (Core.Whatif.acl_candidates b))
    | Error e -> failwith e
  in
  { name; fields; services; edits }

type kind = Risk | Lts | Population | Whatif

let kind_name = function
  | Risk -> "risk"
  | Lts -> "lts"
  | Population -> "population"
  | Whatif -> "whatif"

let population_requests = 20

(* Per round: 8 risk and 6 lts originals on the synthetic models, 20
   population and 4 whatif originals on all nine models, and 4 exact
   repeats (one of each kind). Every round has the same make-up, each
   request on the same model in every round, so that each of its places
   (its slot) costs about the same from round to round; the seed draws
   profiles, population seeds, edits and order. The population requests
   are the largest block and the slowest. Every original is new to the
   daemon's result cache. *)
let composition =
  [ (Risk, 8, `Synthetic, 1); (Lts, 6, `Synthetic, 1);
    (Population, population_requests, `All, 1); (Whatif, 4, `All, 1) ]

(* A repeat's slot, after the originals': one per kind, since each kind
   has one repeat a round. *)
let repeat_slot kind =
  let rec go i = function
    | (k, _, _, _) :: _ when k = kind -> i
    | _ :: rest -> go (i + 1) rest
    | [] -> invalid_arg "repeat_slot"
  in
  go 0 composition

let slot_count =
  List.fold_left (fun acc (_, n, _, reps) -> acc + n + reps) 0 composition

type item = {
  rid : string;
  slot : int;
      (** the same in every round: the original's place in [composition],
          or after the originals, one slot per kind for its repeat *)
  kind : kind;
  request : string;
  repeat_of : int option;  (** index of the original in the round *)
}

let profile_members rng m =
  let agree =
    List.filter_map
      (fun s -> if Prng.bool rng then Some (Json.Str s) else None)
      m.services
  in
  let sens =
    List.filter_map
      (fun f ->
        if Prng.int rng 3 = 0 then None
        else Some (f, Json.Num (Float.round (Prng.float rng 1e6) /. 1e6)))
      m.fields
  in
  [ ("agree", Json.List agree); ("sensitivity", Json.Obj sens) ]

(* A risk request's profile: a seeded sensitivity for every other field,
   and every other service agreed, so that every risk request on a model
   reports the same findings. With drawn subsets of fields and services,
   as [profile_members] gives, the same request took from under 2 ms to
   over 100 ms, and now and then repeated an earlier round's request
   exactly. *)
let risk_members rng m =
  let every_other l = List.filteri (fun i _ -> i mod 2 = 0) l in
  [
    ( "agree",
      Json.List (List.map (fun s -> Json.Str s) (every_other m.services)) );
    ( "sensitivity",
      Json.Obj
        (List.map
           (fun f -> (f, Json.Num (Float.round (Prng.float rng 1e6) /. 1e6)))
           (every_other m.fields)) );
  ]

(* The population sizes of a round, one per population request: 1,000 to
   50,000 profiles at even steps, the same in every round, so that every
   round costs about the same. *)
let population_size i = 1_000 + (i * 49_000 / (population_requests - 1))

(* The request's members after "id"; [nth] counts the round's requests of
   this kind. *)
let members rng kind m ~round ~index ~nth =
  let extra =
    match kind with
    | Risk -> risk_members rng m
    | Lts -> [ ("max_states", Json.int (100_000 + (round * 64) + index)) ]
    | Population ->
      [
        ("size", Json.int (population_size nth));
        ("pop_seed", Json.int (Prng.int rng 1_000_000_000));
        ("agree_probability", Json.Num 0.5);
      ]
    | Whatif ->
      profile_members rng m
      @ [ ("edits", Json.List [ Json.Str (Prng.choose rng m.edits) ]) ]
  in
  ("cmd", Json.Str (kind_name kind)) :: ("model", Json.Str m.name) :: extra

(* Round [round] of the stream, from the seed alone. Each repeat follows
   its original after up to four more originals. *)
let round_items ~seed (paper, synthetic) round =
  let rng = Prng.create ~seed:((seed * 1_000_003) + round) in
  let requests =
    List.concat_map
      (fun (kind, n, pool, _) ->
        let pool =
          Array.of_list
            (match pool with `Synthetic -> synthetic | `All -> paper @ synthetic)
        in
        List.init n (fun i ->
            let len = Array.length pool in
            (kind, i, pool.(if n <= len then i * len / n else i mod len))))
      composition
  in
  let originals =
    Array.of_list
      (List.mapi
         (fun index (slot, (kind, nth, m)) ->
           (kind, (slot, members rng kind m ~round ~index ~nth)))
         (Prng.shuffle rng (List.mapi (fun slot r -> (slot, r)) requests)))
  in
  let n = Array.length originals in
  (* Each kind repeats its first originals in [composition]: the same
     model in every round, so that a repeat's slot costs the same from
     round to round (a cached risk body of 0.2-1.8 MB takes up to 15 ms to
     send). *)
  let slot_of i = fst (snd originals.(i)) in
  let sources =
    List.concat_map
      (fun (kind, _, _, reps) ->
        let of_kind =
          List.filter (fun i -> fst originals.(i) = kind) (List.init n Fun.id)
        in
        List.filteri (fun i _ -> i < reps)
          (List.sort (fun i j -> compare (slot_of i) (slot_of j)) of_kind))
      composition
  in
  let after = List.map (fun s -> (min (n - 1) (s + 1 + Prng.int rng 4), s)) sources in
  let items = ref [] and pos = ref 0 and pos_of = Array.make n 0 in
  let add (kind, (slot, mem)) repeat_of =
    let rid = Printf.sprintf "r%d-%d" round !pos in
    let request =
      Json.to_string ~indent:false (Json.Obj (("id", Json.Str rid) :: mem))
    in
    items := { rid; slot; kind; request; repeat_of } :: !items;
    incr pos
  in
  Array.iteri
    (fun k orig ->
      pos_of.(k) <- !pos;
      add orig None;
      List.iter
        (fun (a, s) ->
          if a = k then
            let kind, (_, mem) = originals.(s) in
            add (kind, (n + repeat_slot kind, mem)) (Some pos_of.(s)))
        after)
    originals;
  Array.of_list (List.rev !items)

(* ----- the client ----- *)

type acc = {
  s : H.samples;
  slots : float list array;  (** latencies in ms of each slot's successes *)
  mutable engine_ms : float;
  mutable transport_ms : float;
  mutable bytes : float;
  mutable answered : int;
}

let acc () =
  {
    s = H.samples ();
    slots = Array.make slot_count [];
    engine_ms = 0.;
    transport_ms = 0.;
    bytes = 0.;
    answered = 0;
  }

let int_member name j = Option.bind (Json.member name j) Json.to_int_opt

(* A population body's by_level counts sum to its total, the size asked. *)
let population_ok (it : item) r =
  match (Json.of_string it.request, Json.of_string (body r)) with
  | Ok req, Ok b -> (
    match (int_member "size" req, int_member "total" b, Json.member "by_level" b) with
    | Some size, Some total, Some (Json.Obj levels) ->
      total = size
      && List.fold_left
           (fun acc (_, n) -> acc + Option.value (Json.to_int_opt n) ~default:(-1))
           0 levels
         = size
    | _ -> false)
  | _ -> false

(* Requests outstanding at once. With two, each kept one of the daemon's
   two workers busy beside the other, and the same request's median
   latency over a run differed by up to 1.6 times between two runs, as
   each worker's collections stalled the other's; with the client
   parsing, three busy threads shared the two cores. *)
let in_flight = 1

(* One round with [in_flight] requests outstanding. Responses are checked
   as they arrive; the round's responses are returned for the in-process
   check. *)
let run_round d c acc items =
  let n = Array.length items in
  let resp = Array.make n None in
  let sent_at = Array.make n 0 in
  let index = Hashtbl.create n in
  Array.iteri (fun i it -> Hashtbl.replace index it.rid i) items;
  let next = ref 0 and outstanding = ref 0 in
  let receive () =
    let line = recv d in
    let t = H.now_ns () in
    let r = parse_response line in
    let i = Hashtbl.find index r.id in
    let it = items.(i) in
    decr outstanding;
    let ns = t - sent_at.(i) in
    let ok = r.status = "ok" in
    H.record acc.s ~ok ns;
    if ok then
      acc.slots.(it.slot) <- H.ms_of_ns ns :: acc.slots.(it.slot);
    acc.engine_ms <- acc.engine_ms +. r.elapsed_ms;
    acc.transport_ms <- acc.transport_ms +. (H.ms_of_ns ns -. r.elapsed_ms);
    acc.bytes <- acc.bytes +. float_of_int (String.length line);
    acc.answered <- acc.answered + 1;
    H.check c (it.rid ^ " is ok") ok;
    (match it.repeat_of with
    | Some o ->
      H.check c
        (it.rid ^ " is cached and byte-identical to its original")
        (r.cached && same_body r (Option.get resp.(o)))
    | None -> ());
    if it.kind = Population then
      H.check c (it.rid ^ " by_level sums to its size") (population_ok it r);
    resp.(i) <- Some r
  in
  while !next < n do
    let it = items.(!next) in
    let ready =
      match it.repeat_of with Some o -> resp.(o) <> None | None -> true
    in
    if !outstanding < in_flight && ready then begin
      sent_at.(!next) <- H.now_ns ();
      send d it.request;
      incr outstanding;
      incr next
    end
    else receive ()
  done;
  while !outstanding > 0 do
    receive ()
  done;
  Array.map Option.get resp

(* Rounds [first], [first + 1], ... for about [seconds]; the first
   round's requests and responses are kept. *)
let timed d c ~seed models ~seconds ~first =
  let acc = acc () in
  let kept = ref [||] in
  let a0 = H.allocated_bytes () in
  let rounds, _ =
    H.loop_rounds ~seconds (fun r ->
        let items = round_items ~seed models (first + r) in
        let r0 = H.now_ns () in
        let resp = run_round d c acc items in
        H.close_round acc.s ~ns:(H.now_ns () - r0);
        if r = 0 then kept := Array.combine items resp)
  in
  (acc, rounds, !kept, H.allocated_bytes () -. a0)

(* ----- checks after the timed phase ----- *)

(* Each original of the kept round, answered again by a fresh in-process
   engine, gives the same body as the daemon did. *)
let in_process_checks c kept =
  let engine = Mdp_serve.Engine.create () in
  Array.iter
    (fun ((it : item), r) ->
      if it.repeat_of = None then
        match Mdp_serve.Protocol.parse_request it.request with
        | Error _ -> H.check c (it.rid ^ " parses in process") false
        | Ok req ->
          let line =
            Mdp_serve.Protocol.response_to_line
              (Mdp_serve.Engine.handle engine req)
          in
          H.check c
            (it.rid ^ " body equals the in-process result")
            (same_body r (parse_response line)))
    kept

let health d =
  send d {|{"id":"health","cmd":"health"}|};
  let r = parse_response (recv d) in
  match Json.of_string (body r) with
  | Ok j -> j
  | Error e -> failwith ("bad health body: " ^ e)

let hit_ratio j cache =
  match Json.member cache j with
  | Some c -> (
    match (int_member "hits" c, int_member "misses" c) with
    | Some h, Some m when h + m > 0 -> float_of_int h /. float_of_int (h + m)
    | _ -> 0.0)
  | None -> 0.0

(* The population layer, timed in process on the kept round's population
   requests (traced run only): the daemon's own layers are out of reach. *)
let population_probe kept =
  let probe = H.tracer true in
  let profiles = ref 0 and classes = ref 0 in
  Array.iter
    (fun ((it : item), _) ->
      if it.kind = Population && it.repeat_of = None then
        match Json.of_string it.request with
        | Ok req ->
          let str k = Option.get (Option.bind (Json.member k req) Json.to_str_opt) in
          let diagram, policy = model_of_name (str "model") in
          let u = Core.Universe.make diagram policy in
          let lts = Core.Generate.run u in
          let plan = Core.Risk_plan.compile u lts in
          let spec =
            {
              Core.Population.seed = Option.get (int_member "pop_seed" req);
              size = Option.get (int_member "size" req);
              westin_mix = Core.Population.default_mix;
              agree_probability = 0.5;
            }
          in
          let ps =
            H.span probe "population.simulate" (fun () ->
                Core.Population.simulate spec diagram)
          in
          let cls =
            H.span probe "population.classes" (fun () ->
                Core.Population.classes u ps)
          in
          ignore
            (H.span probe "population.analyse" (fun () ->
                 Core.Population.analyse_compiled ~plan ~classes:cls u lts []));
          profiles := !profiles + spec.size;
          classes := !classes + List.length cls
        | Error e -> failwith e)
    kept;
  let ms name =
    H.mean_or_zero (H.ms_of_ns (H.self_ns probe name)) (H.calls probe name)
  in
  [
    ("population.simulate_ms", ms "population.simulate");
    ("population.classes_ms", ms "population.classes");
    ("population.analyse_ms", ms "population.analyse");
    ( "population.profiles_per_class",
      H.mean_or_zero (float_of_int !profiles) !classes );
  ]

(* ----- the workload ----- *)

let ping d =
  send d {|{"id":"ping","cmd":"ping"}|};
  let r = parse_response (recv d) in
  if r.status <> "ok" then failwith "daemon does not answer ping"

let run ~seed ~seconds ~trace =
  (* A daemon that stops answering must not hang the run. *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "serve-mix: the daemon stopped answering";
         exit 3));
  ignore (Unix.alarm 170);
  let setup () =
    let t0 = H.now_ns () in
    let models =
      (List.map load paper_models, List.map load synthetic_models)
    in
    let d = start () in
    ping d;
    (H.ms_of_ns (H.now_ns () - t0) /. 1e3, models, d)
  in
  (* The last daemon started is the one measured. *)
  let rec setups i acc =
    let s, models, d = setup () in
    if i = 1 then (s :: acc, models, d)
    else begin
      stop d;
      setups (i - 1) (s :: acc)
    end
  in
  let setup_s, models, d = setups H.setups_per_run [] in
  let c = H.checks () in
  if not trace then begin
    let acc, _, kept, _ = timed d c ~seed models ~seconds ~first:0 in
    let rss = H.peak_rss_mb ~pid:(string_of_int d.pid) () in
    stop d;
    in_process_checks c kept;
    {
      H.correct = H.all_passed c && acc.s.ok > 0;
      attempted = acc.answered;
      failed = acc.s.failed;
      metrics =
        H.end_to_end ~setup_s ~peak_rss_mb:rss acc.s
          ~latency:(H.slot_percentiles acc.slots);
    }
  end
  else begin
    let half = seconds /. 2. in
    let plain, rounds, _, _ = timed d c ~seed models ~seconds:half ~first:0 in
    let traced, _, kept, alloc =
      timed d c ~seed models ~seconds:half ~first:rounds
    in
    let h = health d in
    stop d;
    in_process_checks c kept;
    let n = float_of_int traced.answered in
    let mean_latency a = List.fold_left ( +. ) 0. a.s.lat /. float_of_int (List.length a.s.lat) in
    let values =
      [
        ("serve.engine_ms", traced.engine_ms /. n);
        ("serve.transport_ms", traced.transport_ms /. n);
        ("serve.result_hit_ratio", hit_ratio h "results");
        ("serve.artifact_hit_ratio", hit_ratio h "artifacts");
        ("serve.response_bytes", traced.bytes /. n);
        ("gc.alloc_mb_per_op", alloc /. 1e6 /. n);
        ( "trace.coverage",
          (traced.engine_ms +. traced.transport_ms)
          /. List.fold_left ( +. ) 0. traced.s.lat );
        ("trace.overhead", mean_latency traced /. mean_latency plain);
      ]
      @ population_probe kept
    in
    {
      H.correct = H.all_passed c && traced.s.ok > 0;
      attempted = plain.answered + traced.answered;
      failed = plain.s.failed + traced.s.failed;
      metrics = H.per_layer values;
    }
  end

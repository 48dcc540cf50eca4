(* One cold analysis, composed from each layer's public functions so that
   every layer gets its own span: parse -> universe -> flow compile ->
   explore -> consistency -> plan compile -> analyse -> pseudonym pass ->
   render. The composition is the one Analysis.run and Generate.run make
   (paper-small checks that both give the same report). *)

module Core = Mdp_core
module H = Harness

type source =
  | Text of string  (** DSL source, parsed as part of the operation *)
  | Model of Mdp_dataflow.Diagram.t * Mdp_policy.Policy.t

type input = {
  label : string;
  source : source;
  options : Core.Generate.options;
  profile : Core.User_profile.t option;
  bindings : Core.Pseudonym_risk.binding list;
  json : bool;  (** render the JSON report instead of the text summary *)
}

let model_of tr = function
  | Model (d, p) -> (d, p)
  | Text s -> (
    match H.span tr "dsl.parse" (fun () -> Mdp_dsl.Parser.parse s) with
    | Ok m -> (m.Mdp_dsl.Parser.diagram, m.Mdp_dsl.Parser.policy)
    | Error e -> failwith ("model does not parse: " ^ e))

let explore ?(jobs = 1) ?par_threshold tr u (options : Core.Generate.options) =
  let step, init, packing =
    H.span tr "generate.compile" (fun () ->
        let compiled = Core.Generate.compile u options in
        let stamp = Core.Generate.fresh_stamp () in
        let readable_words = Core.Generate.readable_rows u options in
        let step =
          Core.Generate.make_step u options ~stamp ~compiled ~readable_words
        in
        let init = Core.Config.initial u in
        (step, init, Core.Generate.config_packer options init))
  in
  H.span tr "lts.explore" (fun () ->
      Core.Plts.explore ~max_states:options.max_states ~jobs ?par_threshold
        ?packing ?mem_budget:options.mem_budget ?spill_dir:options.spill_dir
        ~label_class:(Core.Generate.store_classifier u)
        ~init ~step ())

let render tr (a : Core.Analysis.t) ~json =
  H.span tr "render" (fun () ->
      if json then Core.Report.to_string a
      else Format.asprintf "%a@." Core.Analysis.pp_summary a)

(* The operation. Returns the analysis and the rendered report. *)
let run tr inp =
  let diagram, policy = model_of tr inp.source in
  let u = H.span tr "universe.make" (fun () -> Core.Universe.make diagram policy) in
  let lts = explore tr u inp.options in
  let consistency =
    H.span tr "consistency.check" (fun () -> Core.Consistency.check u)
  in
  let matrix = Core.Risk_matrix.default in
  let model = Core.Disclosure_risk.default_likelihood in
  let plan =
    Option.map
      (fun _ ->
        H.span tr "risk_plan.compile" (fun () ->
            Core.Risk_plan.compile ~matrix ~model u lts))
      inp.profile
  in
  let disclosure =
    match (plan, inp.profile) with
    | Some plan, Some profile ->
      Some
        (H.span tr "risk_plan.analyse" (fun () ->
             Core.Risk_plan.analyse plan profile))
    | _ -> None
  in
  let pseudonym =
    H.span tr "pseudonym.analyse" (fun () ->
        List.concat_map (Core.Pseudonym_risk.analyse u lts) inp.bindings)
  in
  let a =
    {
      Core.Analysis.params =
        {
          options = inp.options;
          matrix;
          model;
          profile = inp.profile;
          bindings = inp.bindings;
        };
      universe = u;
      lts;
      consistency;
      disclosure;
      pseudonym;
      plan;
    }
  in
  (a, render tr a ~json:inp.json)

(* A seeded profile: about two thirds of the base fields get a
   sensitivity, each service is agreed with probability 1/2. *)
let seeded_profile rng (d : Mdp_dataflow.Diagram.t) =
  let module Prng = Mdp_prelude.Prng in
  let sensitivities =
    List.filter_map
      (fun f ->
        if Mdp_dataflow.Field.is_anon f || Prng.int rng 3 = 0 then None
        else Some (f, Prng.float rng 1.0))
      (Mdp_dataflow.Diagram.all_fields d)
  in
  let agreed_services =
    List.filter_map
      (fun (s : Mdp_dataflow.Service.t) ->
        if Prng.bool rng then Some s.id else None)
      d.services
  in
  Core.User_profile.make ~sensitivities ~agreed_services ()

(* Layer counts of one operation (traced run only). *)
let count_layers tr (a : Core.Analysis.t) out =
  let lts = a.lts in
  H.count tr "lts.states" (float_of_int (Core.Plts.num_states lts));
  H.count tr "lts.transitions" (float_of_int (Core.Plts.num_transitions lts));
  Option.iter
    (fun (ms : Mdp_lts.Lts.mem_stats) ->
      H.count tr "lts.bytes" (float_of_int ms.ms_total_bytes);
      Option.iter
        (fun plan ->
          H.count tr "risk_plan.entries"
            (float_of_int (Core.Risk_plan.num_entries plan));
          H.count tr "risk_plan.labels" (float_of_int ms.ms_labels))
        a.plan)
    (Core.Plts.mem_stats lts);
  H.count tr "render.bytes" (float_of_int (String.length out))

(* Per-operation layer counts and the ratios built from them. *)
let layers _ tr (p : H.phase) =
  let n = float_of_int (H.ops_of p) in
  let sum = H.sum tr in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  [
    ("lts.states", sum "lts.states" /. n);
    ("lts.transitions", sum "lts.transitions" /. n);
    ( "lts.states_per_s",
      ratio (sum "lts.states")
        (Mdp_obs.Clock.ns_to_s (H.self_ns tr "lts.explore")) );
    ("lts.bytes_per_state", ratio (sum "lts.bytes") (sum "lts.states"));
    ("risk_plan.entries", sum "risk_plan.entries" /. n);
    ("risk_plan.labels", sum "risk_plan.labels" /. n);
    ( "risk_plan.entries_per_label",
      ratio (sum "risk_plan.entries") (sum "risk_plan.labels") );
    ("render.bytes", sum "render.bytes" /. n);
  ]

(* Set-up ends with one untraced operation per distinct input, so that
   caches fill and lazy set-up finishes before the timed phase. *)
let warm_up inputs = List.iter (fun inp -> ignore (run (H.tracer false) inp)) inputs

(* The same inputs through the library's own facade. *)
let run_facade inp =
  let diagram, policy = model_of (H.tracer false) inp.source in
  let a =
    Core.Analysis.run ~options:inp.options ?profile:inp.profile
      ~bindings:inp.bindings diagram policy
  in
  render (H.tracer false) a ~json:inp.json

(* ----- oracles shared by the pipeline workloads ----- *)

(* Order-sensitive digest of an LTS: every state's configuration and its
   successor row in numbering order. *)
let digest lts =
  let h = ref 0 in
  for i = 0 to Core.Plts.num_states lts - 1 do
    h := (!h * 1000003) lxor Core.Config.hash (Core.Plts.state_data lts i);
    List.iter
      (fun (label, dst) ->
        h := (!h * 31) lxor (Core.Action.hash label lxor dst))
      (Core.Plts.successors lts i)
  done;
  !h land max_int

(* Checks against independent implementations: the seed engine's state and
   transition counts, the LTS at two domains (forced parallel on every
   frontier), and the naive per-profile disclosure analysis. *)
let oracle_checks c inp ~profiles =
  let diagram, policy = model_of (H.tracer false) inp.source in
  let u = Core.Universe.make diagram policy in
  let off = H.tracer false in
  let lts = explore off u inp.options in
  let base = Baseline.run ~options:inp.options u in
  H.check c
    (inp.label ^ ": states and transitions equal the seed engine's")
    (Core.Plts.num_states lts = Baseline.num_states base
    && Core.Plts.num_transitions lts = Baseline.num_transitions base);
  let par = explore ~jobs:2 ~par_threshold:0 off u inp.options in
  H.check c
    (inp.label ^ ": LTS identical at --jobs 1 and 2")
    (Core.Plts.num_states par = Core.Plts.num_states lts
    && Core.Plts.num_transitions par = Core.Plts.num_transitions lts
    && digest par = digest lts);
  (* The naive pass re-annotates labels in place, so it gets an LTS of its
     own, as in the library's parity tests. *)
  if profiles <> [] then begin
    let naive_lts = explore off u inp.options in
    let plan = Core.Risk_plan.compile u lts in
    List.iteri
      (fun i profile ->
        let compiled = Core.Risk_plan.analyse plan profile in
        let naive = Core.Disclosure_risk.analyse u naive_lts profile in
        let pp = Format.asprintf "%a" Core.Disclosure_risk.pp_report in
        H.check c
          (Printf.sprintf
             "%s: compiled report equals naive analysis (profile %d)" inp.label
             i)
          (compiled = naive && pp compiled = pp naive))
      profiles
  end

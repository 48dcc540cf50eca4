(* paper-small: one cold pipeline per operation over the paper's artefacts
   and small synthetic models. A fixed cost per LTS dominates here. *)

module Core = Mdp_core
module H = Harness
module Hc = Mdp_scenario.Healthcare
module P = Pipeline

let repo_models =
  [ "healthcare"; "healthcare_deployed"; "research_study"; "rides"; "smart_home" ]

(* Small synthetic models, 182 to 1,097 states each. *)
let synthetic_specs =
  [ "6-8-5"; "6-8-5@1"; "6-8-5@2"; "6-8-5@4"; "7-9-5"; "7-9-5@2"; "8-10-6@3";
    "5-7-4" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let print diagram policy =
  Mdp_dsl.Printer.to_string { Mdp_dsl.Parser.diagram; policy; placement = None }

let synthetic_model spec =
  match Mdp_scenario.Synthetic.spec_of_string ("synthetic:" ^ spec) with
  | Some (Ok s) -> Mdp_scenario.Synthetic.model s
  | _ -> invalid_arg ("bad synthetic spec " ^ spec)

let fig3_options =
  { Core.Generate.flow_only with services = Some [ Hc.medical_service ] }

let fig4_options = { Core.Generate.default_options with granular_reads = true }

(* The distinct models, one input each; [profile] is [None] where every
   operation draws its own seeded profile, and the paper's profile for
   the §IV-A pair. *)
let models () =
  let input ?(options = Core.Generate.default_options) ?(bindings = [])
      ?profile ?(json = false) label diagram source =
    ({ P.label; source; options; profile; bindings; json }, diagram)
  in
  let of_file name =
    let text = read_file (Filename.concat "models" (name ^ ".mdp")) in
    match Mdp_dsl.Parser.parse text with
    | Ok m -> input ~json:true name m.Mdp_dsl.Parser.diagram (P.Text text)
    | Error e -> failwith (name ^ ".mdp: " ^ e)
  in
  let text d p = P.Text (print d p) in
  let artefacts =
    List.map of_file repo_models
    @ [
        input ~profile:Hc.profile_case_a "IV-A before" Hc.diagram
          (text Hc.diagram Hc.policy);
        input ~profile:Hc.profile_case_a "IV-A after" Hc.diagram
          (text Hc.diagram Hc.fixed_policy);
        input ~options:fig3_options "Fig. 3" Hc.diagram
          (text Hc.diagram Hc.policy);
        input ~options:fig4_options ~bindings:[ Hc.study_binding ] "Fig. 4"
          Hc.study_diagram
          (text Hc.study_diagram Hc.study_policy);
      ]
  in
  let synthetic =
    List.map
      (fun spec ->
        let d, p = synthetic_model spec in
        input ("synthetic:" ^ spec) d (text d p))
      synthetic_specs
  in
  (artefacts, synthetic)

let with_profile rng ((inp : P.input), diagram) =
  match inp.profile with
  | Some _ -> inp
  | None -> { inp with profile = Some (P.seeded_profile rng diagram) }

(* One round, in seeded order: every artefact four times and every
   synthetic model twice, each operation with a profile of its own — 36
   and 16 operations, so the median falls among the artefacts and the p80
   among the synthetic models. *)
let round rng (artefacts, synthetic) =
  let times n l = List.concat (List.init n (fun _ -> l)) in
  Array.of_list
    (Mdp_prelude.Prng.shuffle rng
       (List.map (with_profile rng) (times 4 artefacts @ times 2 synthetic)))

(* Rounds cycle through this many draws of profiles and order. *)
let variants = 64

let op inp tr =
  let a, out = P.run tr inp in
  if tr.H.on then P.count_layers tr a out;
  true

(* ----- output checks ----- *)

let find inputs label = List.find (fun (i : P.input) -> i.label = label) inputs
let analysis inputs label = fst (P.run (H.tracer false) (find inputs label))

let paper_checks c inputs =
  (* §IV-A: the Administrator's read of the EHR is Medium, Low after the
     revocation. *)
  let before = analysis inputs "IV-A before" in
  H.check c "IV-A: Administrator read of EHR is Medium"
    (Core.Disclosure_risk.level_for
       (Option.get before.Core.Analysis.disclosure)
       ~actor:"Administrator" ~store:"EHR" ~field:Hc.diagnosis
    = Core.Level.Medium);
  let after = analysis inputs "IV-A after" in
  H.check c "IV-A: worst level after the revocation is Low"
    (Core.Disclosure_risk.max_level (Option.get after.Core.Analysis.disclosure)
    = Core.Level.Low);
  (* Table I: per-record risks and the 0 / 2 / 4 violations row. *)
  List.iter
    (fun (fields_read, risks, violations) ->
      let r =
        Mdp_anon.Value_risk.assess Hc.table1_released ~fields_read
          Hc.value_policy
      in
      H.check c
        ("Table I: " ^ String.concat "+" fields_read)
        (List.map
           (fun (s : Mdp_anon.Value_risk.score) ->
             Mdp_prelude.Frac.to_string s.risk)
           r.scores
         = risks
        && r.violations = violations))
    [
      ([ "Height" ], [ "2/4"; "2/4"; "2/4"; "2/4"; "1/2"; "1/2" ], 0);
      ([ "Age" ], [ "2/2"; "2/2"; "3/4"; "3/4"; "1/4"; "3/4" ], 2);
      ([ "Age"; "Height" ], [ "2/2"; "2/2"; "2/2"; "2/2"; "1/2"; "1/2" ], 4);
    ];
  (* Fig. 2: 2 x 5 actors x 6 fields = 60 state variables. *)
  let u = before.Core.Analysis.universe in
  let base_fields =
    List.filter
      (fun f -> not (Mdp_dataflow.Field.is_anon f))
      (Mdp_dataflow.Diagram.all_fields Hc.diagram)
  in
  H.check c "Fig. 2: 60 state variables"
    (2 * Core.Universe.nactors u * List.length base_fields = 60);
  (* Fig. 3: the Medical Service alone is a linear chain of six flows. *)
  let fig3 = (analysis inputs "Fig. 3").Core.Analysis.lts in
  let chain =
    List.for_all
      (fun i ->
        match Core.Plts.successors fig3 i with
        | [ (label, dst) ] ->
          dst = i + 1
          && (match label.Core.Action.provenance with
             | Core.Action.From_flow _ -> true
             | Core.Action.Potential | Core.Action.Inferred -> false)
        | _ -> false)
      (List.init 6 Fun.id)
  in
  H.check c "Fig. 3: linear chain of six flows"
    (chain
    && Core.Plts.num_states fig3 = 7
    && Core.Plts.num_transitions fig3 = 6
    && Core.Plts.successors fig3 6 = []);
  (* Fig. 4: violation scores {0, 2, 4}; a 50% gate rejects at 4/6. *)
  let rts = (analysis inputs "Fig. 4").Core.Analysis.pseudonym in
  let scores =
    List.sort_uniq compare
      (List.map
         (fun (rt : Core.Pseudonym_risk.risk_transition) ->
           rt.report.Mdp_anon.Value_risk.violations)
         rts)
  in
  let worst_is_4_of_6 =
    List.exists
      (fun (rt : Core.Pseudonym_risk.risk_transition) ->
        rt.report.violations = 4 && List.length rt.report.scores = 6)
      rts
  in
  H.check c "Fig. 4: violation scores 0, 2 and 4" (scores = [ 0; 2; 4 ]);
  H.check c "Fig. 4: the 50% gate rejects at 4/6"
    (worst_is_4_of_6
    && Result.is_error (Core.Pseudonym_risk.check ~max_violation_ratio:0.5 rts))

let checks rng (artefacts, synthetic) =
  let c = H.checks () in
  let inputs = List.map (with_profile rng) (artefacts @ synthetic) in
  paper_checks c inputs;
  List.iter2
    (fun (inp : P.input) (_, diagram) ->
      H.check c
        (inp.label ^ ": report equals the Analysis.run facade's")
        (snd (P.run (H.tracer false) inp) = P.run_facade inp);
      P.oracle_checks c inp
        ~profiles:[ P.seeded_profile rng diagram; P.seeded_profile rng diagram ])
    inputs (artefacts @ synthetic);
  c

let run ~seed ~seconds ~trace =
  let setup () =
    let t0 = H.now_ns () in
    let rng = Mdp_prelude.Prng.create ~seed in
    let models = models () in
    let inputs = Array.init variants (fun _ -> round rng models) in
    let rounds = Array.map (Array.map op) inputs in
    (* a whole round of warm-up: 52 operations time steadier than 17 *)
    P.warm_up (Array.to_list inputs.(0));
    (H.ms_of_ns (H.now_ns () - t0) /. 1e3, models, fun r -> rounds.(r mod variants))
  in
  H.measure ~seconds ~trace ~setup ~layers:P.layers ~checks:(fun models ->
      checks (Mdp_prelude.Prng.create ~seed:(seed + 1)) models)

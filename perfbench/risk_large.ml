(* risk-large: one cold `mdpriv risk` with the text report per operation,
   on mid-size synthetic models at --jobs 1. Analyse and render dominate. *)

module Core = Mdp_core
module H = Harness
module P = Pipeline
module Syn = Mdp_scenario.Synthetic

(* 10k to 16k states, 52k to 83k transitions, so that a run completes
   more than 100 operations. A round is one operation on each, so its
   median is the middle model's latency and its p80 lies between the two
   slowest models'. *)
let specs = [ "9-11-7@16"; "9-12-7@5"; "10-12-7@1"; "10-12-7@42"; "10-13-8@23" ]

let input spec =
  match Syn.spec_of_string ("synthetic:" ^ spec) with
  | Some (Ok s) ->
    let d, p = Syn.model s in
    {
      P.label = "synthetic:" ^ spec;
      source = P.Model (d, p);
      options = Core.Generate.default_options;
      profile = Some (Syn.profile s d);
      bindings = [];
      json = false;
    }
  | _ -> invalid_arg ("bad synthetic spec " ^ spec)

let op inp tr =
  let a, out = P.run tr inp in
  if tr.H.on then P.count_layers tr a out;
  true

(* The oracles run on two of the models, chosen by the seed. The naive
   disclosure analysis is left to paper-small: it searches a witness path
   per finding, 25-45 s per profile on these models. *)
let checks rng inputs =
  let c = H.checks () in
  let sample = List.filteri (fun i _ -> i < 2) (Mdp_prelude.Prng.shuffle rng inputs) in
  List.iter
    (fun (inp : P.input) ->
      H.check c
        (inp.label ^ ": report equals the Analysis.run facade's")
        (snd (P.run (H.tracer false) inp) = P.run_facade inp);
      P.oracle_checks c inp
        ~profiles:[])
    sample;
  c

let run ~seed ~seconds ~trace =
  let setup () =
    let t0 = H.now_ns () in
    let rng = Mdp_prelude.Prng.create ~seed in
    let inputs = List.map input specs in
    let ops = Array.of_list (List.map op (Mdp_prelude.Prng.shuffle rng inputs)) in
    P.warm_up inputs;
    (H.ms_of_ns (H.now_ns () - t0) /. 1e3, inputs, fun _ -> ops)
  in
  H.measure ~seconds ~trace ~setup ~layers:P.layers ~checks:(fun inputs ->
      checks (Mdp_prelude.Prng.create ~seed:(seed + 1)) inputs)

(* whatif-sweep: the §IV-A edit loop. Set-up builds each base (cold
   analysis + Whatif.prepare); one operation is one exact
   Whatif.eval_edit of a single-ACL candidate. *)

module Core = Mdp_core
module H = Harness
module Syn = Mdp_scenario.Synthetic
module Hc = Mdp_scenario.Healthcare

type base = {
  name : string;
  analysis : Core.Analysis.t;
  wbase : Core.Whatif.base;
  candidates : Core.Edit.t array;
}

type state = {
  bases : base array;
  prepare_ns : int;  (** summed over the bases *)
  outcomes : (int * int, Core.Whatif.outcome) Hashtbl.t;
      (** (base, candidate) -> outcome of the latest round *)
  guard_failures : (int * int, unit) Hashtbl.t;
      (** candidates whose evaluation hit the state guard *)
  mutable errors : string list;  (** eval_edit application errors *)
}

let classes = [ "unchanged"; "delta"; "replay"; "cone"; "full_rerun" ]

let class_name = function
  | Core.Whatif.Unchanged -> "unchanged"
  | Delta -> "delta"
  | Replay -> "replay"
  | Cone -> "cone"
  | Full_rerun -> "full_rerun"

let synthetic spec =
  match Syn.spec_of_string ("synthetic:" ^ spec) with
  | Some (Ok s) ->
    let d, p = Syn.model s in
    ("synthetic:" ^ spec, d, p, Syn.profile s d)
  | _ -> invalid_arg ("bad synthetic spec " ^ spec)

(* Healthcare with the §IV-A profile, and two synthetic models with
   Synthetic.profile. *)
let base_models () =
  [
    ("healthcare", Hc.diagram, Hc.policy, Hc.profile_case_a);
    synthetic "10-12-7";
    synthetic "10-11-7@9";
  ]

let build_bases () =
  let prepare_ns = ref 0 in
  let bases =
    List.map
      (fun (name, d, p, profile) ->
        let analysis = Core.Analysis.run ~profile d p in
        let t0 = H.now_ns () in
        let wbase =
          match Core.Whatif.prepare analysis with
          | Ok b -> b
          | Error e -> failwith (name ^ ": " ^ e)
        in
        prepare_ns := !prepare_ns + (H.now_ns () - t0);
        {
          name;
          analysis;
          wbase;
          candidates = Array.of_list (Core.Whatif.acl_candidates wbase);
        })
      (base_models ())
  in
  (Array.of_list bases, !prepare_ns)

(* The regen layer runs inside eval_edit, out of reach of the benchmark's
   spans. So the traced run, after its timed phases, puts every
   cone-eligible candidate through Regen.make_patch and Regen.walk once
   more under spans of their own. *)
let regen_probe probe (b : base) edit =
  let inputs = Core.Analysis.inputs_of b.analysis in
  match Core.Edit.apply inputs edit with
  | Error _ -> ()
  | Ok after ->
    let options = b.analysis.params.options in
    let inv = Core.Edit.classify ~options ~before:inputs ~after in
    if inv.Core.Edit.inv_lts && inv.Core.Edit.inv_cone then begin
      let u = Core.Universe.make after.diagram after.policy in
      match
        H.span probe "regen.make_patch" (fun () ->
            Core.Regen.make_patch ~u_old:b.analysis.universe ~u options)
      with
      | None -> H.count probe "regen.refused" 1.0
      | Some patch ->
        ignore
          (H.span probe "regen.walk" (fun () ->
               Core.Regen.walk patch b.analysis.lts))
    end

let op st bi ci tr =
  let b = st.bases.(bi) in
  let t0 = H.now_ns () in
  match Core.Whatif.eval_edit ~exact:true b.wbase b.candidates.(ci) with
  | Ok o ->
    Hashtbl.replace st.outcomes (bi, ci) o;
    if tr.H.on then
      H.add_self tr ("whatif.eval." ^ class_name o.classification)
        (H.now_ns () - t0);
    true
  | Error e ->
    st.errors <- (b.name ^ ": " ^ e) :: st.errors;
    false
  | exception Mdp_lts.Lts.Too_many_states _ ->
    Hashtbl.replace st.guard_failures (bi, ci) ();
    if tr.H.on then H.add_self tr "whatif.eval.state_guard" (H.now_ns () - t0);
    false

(* ----- output checks ----- *)

let sorted_diff (d : Core.Risk_diff.t) =
  let s l = List.sort compare l in
  (s d.removed, s d.added, s d.changed, d.unchanged)

let cold_run (b : base) edit =
  let inputs = Core.Analysis.inputs_of b.analysis in
  match Core.Edit.apply inputs edit with
  | Error e -> failwith e
  | Ok after ->
    Core.Analysis.run ~options:b.analysis.params.options ?profile:after.profile
      ~bindings:after.bindings after.diagram after.policy

(* The class census of one round, on stderr. *)
let print_census st =
  Array.iteri
    (fun bi (b : base) ->
      let count cls =
        Hashtbl.fold
          (fun (bj, _) (o : Core.Whatif.outcome) n ->
            if bj = bi && class_name o.classification = cls then n + 1 else n)
          st.outcomes 0
      in
      let failed =
        Hashtbl.fold
          (fun (bj, _) () n -> if bj = bi then n + 1 else n)
          st.guard_failures 0
      in
      Printf.eprintf "census %s: %d candidates, %s, %d state-guard failures\n%!"
        b.name (Array.length b.candidates)
        (String.concat ", "
           (List.map (fun cls -> Printf.sprintf "%d %s" (count cls) cls) classes))
        failed)
    st.bases

let checks rng st =
  print_census st;
  let c = H.checks () in
  H.check c "no candidate failed to apply" (st.errors = []);
  (* The §IV-A fix, as a sweep candidate. *)
  let fix =
    match Core.Edit.parse "revoke:Administrator:read:EHR:Diagnosis" with
    | Ok e -> Core.Edit.to_string e
    | Error e -> failwith e
  in
  let hc = st.bases.(0) in
  let found = ref false in
  Array.iteri
    (fun ci e ->
      if Core.Edit.to_string e = fix then begin
        found := true;
        H.check c ("healthcare " ^ fix ^ " gives worst Low")
          (match Hashtbl.find_opt st.outcomes (0, ci) with
          | Some o -> o.worst_after = Some Core.Level.Low
          | None -> false)
      end)
    hc.candidates;
  H.check c ("healthcare sweep has candidate " ^ fix) !found;
  (* A seeded candidate of each class on each base equals a cold run of
     the edited model: worst level and finding diff. *)
  Array.iteri
    (fun bi (b : base) ->
      let before = Option.get b.analysis.disclosure in
      List.iter
        (fun cls ->
          let members =
            List.filter
              (fun ci ->
                match Hashtbl.find_opt st.outcomes (bi, ci) with
                | Some o -> class_name o.classification = cls
                | None -> false)
              (List.init (Array.length b.candidates) Fun.id)
          in
          if members <> [] then begin
            let ci = Mdp_prelude.Prng.choose rng members in
            let o = Hashtbl.find st.outcomes (bi, ci) in
            let after = Option.get (cold_run b b.candidates.(ci)).disclosure in
            H.check c
              (Printf.sprintf "%s %s candidate %s equals a cold run" b.name cls
                 (Core.Edit.to_string b.candidates.(ci)))
              (o.worst_after = Some (Core.Disclosure_risk.max_level after)
              && Option.map sorted_diff o.diff
                 = Some (sorted_diff (Core.Risk_diff.diff ~before ~after)))
          end)
        classes)
    st.bases;
  (* Every guard failure is a model past the state guard, cold too. *)
  Hashtbl.iter
    (fun (bi, ci) () ->
      let b = st.bases.(bi) in
      H.check c
        (Printf.sprintf "%s %s exceeds the state guard when run cold" b.name
           (Core.Edit.to_string b.candidates.(ci)))
        (match cold_run b b.candidates.(ci) with
        | _ -> false
        | exception Mdp_lts.Lts.Too_many_states _ -> true))
    st.guard_failures;
  c

(* Per-class evaluation time and census, the regen probe, prepare time. *)
let layers st tr (p : H.phase) =
  let rounds = float_of_int p.rounds in
  let probe = H.tracer true in
  Array.iter
    (fun b -> Array.iter (regen_probe probe b) b.candidates)
    st.bases;
  let per_class =
    List.concat_map
      (fun cls ->
        let span = "whatif.eval." ^ cls in
        let n = H.calls tr span in
        [
          ( "whatif.eval_ms." ^ cls,
            H.mean_or_zero (H.ms_of_ns (H.self_ns tr span)) n );
          ("whatif.count." ^ cls, float_of_int n /. rounds);
        ])
      classes
  in
  let probe_ms name =
    H.mean_or_zero (H.ms_of_ns (H.self_ns probe name)) (H.calls probe name)
  in
  per_class
  @ [
      ( "whatif.prepare_ms",
        H.ms_of_ns st.prepare_ns /. float_of_int (Array.length st.bases) );
      ("regen.make_patch_ms", probe_ms "regen.make_patch");
      ("regen.walk_ms", probe_ms "regen.walk");
      ("regen.refused", H.sum probe "regen.refused");
    ]

let run ~seed ~seconds ~trace =
  let setup () =
    let t0 = H.now_ns () in
    let bases, prepare_ns = build_bases () in
    let st =
      {
        bases;
        prepare_ns;
        outcomes = Hashtbl.create 512;
        guard_failures = Hashtbl.create 8;
        errors = [];
      }
    in
    (* Every candidate once. By latency the round is about a third below
       1.5 ms (unchanged and delta classes, healthcare), a third 10-12-7
       cones (2-18 ms), a quarter 10-11-7@9 cones (7-87 ms) and 7% full
       reruns: the median falls near the middle of the 10-12-7 cones and
       the p80 near the middle of the 10-11-7@9 cones, where latency rises
       slowly with rank. The healthcare evaluations are no place for a
       percentile: the same candidate takes 0.1 to 5 ms, depending on the
       major GC work the synthetic reruns leave for it. *)
    let pairs =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun bi b ->
                List.init (Array.length b.candidates) (fun ci -> (bi, ci)))
              bases))
    in
    let rng = Mdp_prelude.Prng.create ~seed in
    let ops =
      Array.of_list
        (List.map
           (fun (bi, ci) -> op st bi ci)
           (Mdp_prelude.Prng.shuffle rng pairs))
    in
    (H.ms_of_ns (H.now_ns () - t0) /. 1e3, st, fun _ -> ops)
  in
  H.measure ~seconds ~trace ~setup ~layers
    ~checks:(checks (Mdp_prelude.Prng.create ~seed:(seed + 1)))

(* The mdpriv benchmark. One workload per run:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of stdout is one JSON object: whether every output check
   passed, the operations attempted and failed, and the metrics — the
   end-to-end ones untraced, the per-layer ones traced. See README.md. *)

let workloads =
  [
    ("paper-small", Paper_small.run);
    ("risk-large", Risk_large.run);
    ("whatif-sweep", Whatif_sweep.run);
    ("serve-mix", Serve_mix.run);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe --workload (%s) --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map fst workloads));
  exit 2

let () =
  let rec parse acc = function
    | [] -> acc
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      parse ((key, value) :: acc) rest
    | _ -> usage ()
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get key = match List.assoc_opt key args with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some v -> v | None -> usage () in
  let run =
    match List.assoc_opt (get "--workload") workloads with
    | Some run -> run
    | None -> usage ()
  in
  let seed = int "--seed" in
  let seconds = float_of_int (int "--seconds") in
  let trace =
    match int "--trace" with 0 -> false | 1 -> true | _ -> usage ()
  in
  if seconds <= 0. then usage ();
  (* Refuse to run anywhere but the root of a source tree: the workloads
     read models/ and start the daemon built from bin/. *)
  if not (Sys.file_exists "models" && Sys.file_exists "dune-project") then begin
    prerr_endline "perfbench: run from the root of an mdpriv source tree";
    exit 2
  end;
  let r = run ~seed ~seconds ~trace in
  (* A failed check is reported in the result ("correct": false) and on
     stderr, not through the exit code. *)
  print_endline (Harness.result_line r)

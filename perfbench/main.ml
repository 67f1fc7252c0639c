(* The benchmark executable: one workload, one seed, one run.

     main.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics of W; with --trace 1
   it runs the traced pipeline of W for S seconds and of the other
   workloads for S/4 seconds each, so one traced run reports every
   per-layer metric.  The last line of standard output is the JSON
   result.  --setup-probe measures one set-up in this fresh process and
   prints it; an untraced run spawns it in child processes. *)

let workloads = [ "cold_batch"; "edit_session"; "serve_mixed" ]

let work_dir = ".perfbench-work"

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let proc_field path key =
  match read_file path with
  | None -> "unknown"
  | Some text ->
      List.fold_left
        (fun acc line ->
          match String.index_opt line ':' with
          | Some i when String.trim (String.sub line 0 i) = key ->
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
          | _ -> acc)
        "unknown" (String.split_on_char '\n' text)

let steal_ticks () =
  match read_file "/proc/stat" with
  | None -> -1
  | Some text -> (
      match String.split_on_char '\n' text with
      | cpu :: _ -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' cpu) with
          | _ :: _user :: _nice :: _sys :: _idle :: _iow :: _irq :: _sirq :: steal :: _ ->
              int_of_string steal
          | _ -> -1)
      | [] -> -1)

let host_cpus () =
  match read_file "/proc/cpuinfo" with
  | None -> Domain.recommended_domain_count ()
  | Some text ->
      List.length
        (List.filter
           (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
           (String.split_on_char '\n' text))

let nofile () =
  match read_file "/proc/self/limits" with
  | None -> "unknown"
  | Some text ->
      List.fold_left
        (fun acc line ->
          if String.length line > 14 && String.sub line 0 14 = "Max open files" then
            String.concat "/"
              (List.filteri (fun i _ -> i < 2)
                 (List.filter (( <> ) "")
                    (String.split_on_char ' ' (String.sub line 14 (String.length line - 14)))))
          else acc)
        "unknown" (String.split_on_char '\n' text)

let env_line ~workload ~seed ~seconds ~trace ~steal0 ~extra =
  let getenv k = Option.value (Sys.getenv_opt k) ~default:"" in
  let steal1 = steal_ticks () in
  let fields =
    [
      ("workload", workload);
      ("seed", string_of_int seed);
      ("seconds", Printf.sprintf "%g" seconds);
      ("trace", string_of_bool trace);
      ("cpus", string_of_int (host_cpus ()));
      ("ocaml", Sys.ocaml_version);
      ("commit", getenv "PERFBENCH_COMMIT");
      ("rlimit_nofile", nofile ());
      ("cpus_allowed", proc_field "/proc/self/status" "Cpus_allowed_list");
      ("steal_ticks_delta", string_of_int (if steal0 < 0 || steal1 < 0 then -1 else steal1 - steal0));
      ("OCAMLRUNPARAM", getenv "OCAMLRUNPARAM");
      ("work_dir", Filename.concat (Sys.getcwd ()) work_dir);
    ]
    @ extra
  in
  Outcome.line "env {%s}"
    (String.concat ", "
       (List.map (fun (k, v) -> Outcome.json_string k ^ ": " ^ Outcome.json_string v) fields))

let project_line name pj =
  let sm = Gen.summary pj in
  Outcome.line "project %s: %d files, %d functions, %d bytes, files by class %s" name sm.Gen.sm_files
    sm.sm_functions sm.sm_bytes
    (String.concat " "
       (List.map
          (fun (c, k) -> Printf.sprintf "%s=%d (%.1f%%)" c k (100.0 *. float_of_int k /. float_of_int sm.sm_files))
          sm.sm_class_files))

(* Set-ups measured in fresh child processes of this executable. *)
let setup_probe ~workload ~seed ~count () =
  List.init count (fun _ ->
      let ic =
        Unix.open_process_args_in Sys.executable_name
          [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--setup-probe" |]
      in
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> (
          match Scanf.sscanf_opt (String.trim out) "setup_s=%f" Fun.id with
          | Some v -> v
          | None -> failwith ("setup probe printed " ^ out))
      | _ -> failwith "setup probe failed")

let probe workload seed =
  let rep = Outcome.create () in
  let s =
    match workload with
    | "cold_batch" -> fst (Cold.first_pass (Cold.sources (Cold.project seed)))
    | "edit_session" -> fst (Edit.setup rep (Edit.project seed))
    | w -> failwith ("no set-up probe for " ^ w)
  in
  if rep.Outcome.failed > 0 then exit 1;
  Printf.printf "setup_s=%.9f\n" s

let untraced rep ~workload ~seed ~seconds =
  match workload with
  | "cold_batch" ->
      project_line workload (Cold.project seed);
      Cold.run_untraced rep ~seed ~seconds ~setup_probe:(setup_probe ~workload ~seed ~count:4)
  | "edit_session" ->
      project_line workload (Edit.project seed);
      Edit.run_untraced rep ~seed ~seconds ~setup_probe:(setup_probe ~workload ~seed ~count:4)
  | "serve_mixed" ->
      project_line workload (Serve_mix.project seed);
      Serve_mix.run_untraced rep ~seed ~seconds ~work_dir
  | w -> failwith ("unknown workload " ^ w)

let traced rep ~workload ~seed ~seconds =
  let tr =
    match workload with
    | "cold_batch" -> Some (Cold.run_traced rep ~seed ~seconds)
    | "edit_session" -> Some (Edit.run_traced rep ~seed ~seconds)
    | "serve_mixed" ->
        Serve_mix.run_traced rep ~seed ~seconds ~work_dir;
        None
    | w -> failwith ("unknown workload " ^ w)
  in
  Option.iter
    (fun tr -> Trace.write tr (Filename.concat work_dir (Printf.sprintf "trace-%s-%d.json" workload seed)))
    tr

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of cold_batch, edit_session, serve_mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S nominal measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--setup-probe", Arg.Set setup_only, " measure one set-up and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if !setup_only then probe !workload !seed
  else begin
    (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let steal0 = steal_ticks () in
    let rep = Outcome.create () in
    if !trace = 0 then untraced rep ~workload:!workload ~seed:!seed ~seconds:!seconds
    else begin
      traced rep ~workload:!workload ~seed:!seed ~seconds:!seconds;
      List.iter
        (fun w -> if w <> !workload then traced rep ~workload:w ~seed:!seed ~seconds:(!seconds /. 4.0))
        workloads
    end;
    env_line ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~steal0
      ~extra:(Serve_mix.env_fields ());
    List.iter (fun e -> Outcome.line "failure: %s" e) (List.rev rep.Outcome.errors);
    (* metrics are reported by name only once every correctness gate passed *)
    if rep.Outcome.failed = 0 then
      List.iter
        (fun (name, v, unit) ->
          match List.assoc_opt name rep.Outcome.samples with
          | Some n -> Outcome.line "metric %s = %.6g %s (%d samples)" name v unit n
          | None -> Outcome.line "metric %s = %.6g %s" name v unit)
        (List.rev rep.Outcome.metrics);
    Outcome.line "operations: %d attempted, %d failed" rep.Outcome.attempted rep.Outcome.failed;
    print_endline (Outcome.result_json rep ~correct:(rep.Outcome.failed = 0))
  end

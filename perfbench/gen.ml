(* Seeded project generator.  The benchmark's programs see only what
   this module renders, so a seed fixes every input byte.

   Three classes of generated input, each present for a reason:

   - Kernel files: affine loop nests with helper calls, the fragment
     Mira models exactly.  They are most of a project, so they set the
     median latency of a cold analysis and of a body edit.
   - App files: a stencil-assembly function shaped like miniFE's
     [assemble] — grid loops around a (2r+1)^d neighbourhood with a
     conjunctive bounds guard.  Metric generation dominates their
     cost, so they set the latency tail.
   - Shared declarations: one function repeated textually (the C-header
     discipline) in every file of a group and called from one kernel
     per file.  Editing its signature in one file invalidates callers
     in the other files, which exercises the session's cross-file
     index.

   Every function renders to a fixed number of lines whatever its edit
   counter, so an edit to one function never moves another function's
   lines (which would change that function's fingerprint too). *)

type kind = Helper | Kernel | Assemble | Shared

type func = {
  fn_name : string;
  fn_kind : kind;
  fn_params : string list;  (** model parameters the VM gate binds *)
  fn_calls_shared : bool;
  fn_render : int -> string;  (** edit counter -> text *)
  mutable fn_edit : int;
}

type fclass = Kernel_file | App_file | Bundled_file

type file = {
  fl_name : string;
  fl_class : fclass;
  fl_group : int option;  (** shared-declaration group *)
  fl_funcs : func array;  (** empty for bundled programs *)
  fl_fixed : string;  (** text of a bundled program *)
  fl_app : (int * int) option;  (** (d, r) of an app's stencil *)
}

let class_name = function
  | Kernel_file -> "kernel"
  | App_file -> "app"
  | Bundled_file -> "bundled"

let render (fl : file) =
  if fl.fl_class = Bundled_file then fl.fl_fixed
  else
    String.concat "\n"
      (Array.to_list (Array.map (fun f -> f.fn_render f.fn_edit) fl.fl_funcs))

(* ---------- kernels ---------- *)

let pick rng a = a.(Random.State.int rng (Array.length a))

(* Two random streams.  [st] draws a kernel's structure (loop kinds and
   depths, statement kinds, branches) from the file's index alone, so
   every seed yields the same mix of work; [dt] draws the details
   (variables, index offsets, constants) from the seed, so seeds differ
   in every source text without moving the mix. *)
type rngs = { st : Random.State.t; dt : Random.State.t }

let int_s r n = Random.State.int r.st n
let int_d r n = Random.State.int r.dt n

(* Loop variables stay >= 0 and every range is non-empty as written
   (the paper's counting convention); indices stay below 2n + 16. *)
let gen_loop r idx outers =
  let v = Printf.sprintf "i%d" idx in
  let lo, hi =
    match int_s r 3 with
    | 0 -> ("0", "n - 1")
    | 1 ->
        let base =
          match outers with [] -> "0" | vs -> pick r.dt (Array.of_list vs)
        in
        (base, Printf.sprintf "%s + %d" base (int_d r 5))
    | _ ->
        let lo = int_d r 3 in
        (string_of_int lo, string_of_int (lo + 1 + int_d r 6))
  in
  Printf.sprintf "for (int %s = %s; %s <= %s; %s++) {" v lo v hi v

let gen_index r vars =
  let v = pick r.dt vars in
  match int_d r 3 with
  | 0 -> v
  | 1 -> Printf.sprintf "%s + %d" v (1 + int_d r 3)
  | _ -> Printf.sprintf "%s + %s" v (pick r.dt vars)

let gen_stmt r ~helper vars =
  let ix () = gen_index r vars in
  match int_s r 8 with
  | 0 -> Printf.sprintf "s += a[%s] * 1.5;" (ix ())
  | 1 -> Printf.sprintf "a[%s] = b[%s] + s;" (ix ()) (ix ())
  | 2 -> Printf.sprintf "b[%s] = a[%s] - 2.0 * b[%s];" (ix ()) (ix ()) (ix ())
  | 3 -> Printf.sprintf "p[%s] = p[%s] + %d;" (ix ()) (ix ()) (1 + int_d r 4)
  | 4 -> Printf.sprintf "t += p[%s] + %s;" (ix ()) (pick r.dt vars)
  | 5 -> Printf.sprintf "s += dh_%s(a[%s], b[%s]);" helper (ix ()) (ix ())
  | 6 -> Printf.sprintf "t += ih_%s(p, %s, %d);" helper (pick r.dt vars) (1 + int_d r 4)
  | _ -> Printf.sprintf "s = s + b[%s] / 4.0;" (ix ())

let gen_cond r vars =
  let v = pick r.dt vars in
  match int_s r 3 with
  | 0 -> Printf.sprintf "%s > %d" v (int_d r 6)
  | 1 -> Printf.sprintf "%s %% %d == 0" v (2 + int_d r 3)
  | _ -> Printf.sprintf "%s %% %d != 0" v (2 + int_d r 3)

(* one loop nest as indented lines *)
let gen_nest r ~helper ~max_depth =
  let depth = 1 + int_s r max_depth in
  let lines = ref [] in
  let add ind s = lines := (String.make ind ' ' ^ s) :: !lines in
  let rec go idx outers =
    let ind = 2 * (idx + 1) in
    if idx = depth then begin
      let vars = Array.of_list (List.rev outers) in
      if int_s r 3 = 0 then begin
        add ind (Printf.sprintf "if (%s) {" (gen_cond r vars));
        add (ind + 2) (gen_stmt r ~helper vars);
        add ind "}"
      end;
      for _ = 1 to 1 + int_s r 2 do
        add ind (gen_stmt r ~helper vars)
      done
    end
    else begin
      add ind (gen_loop r idx outers);
      go (idx + 1) (Printf.sprintf "i%d" idx :: outers);
      add ind "}"
    end
  in
  go 0 [];
  List.rev !lines

let kernel_func r ~helper ~max_depth ~name ~shared =
  let nests =
    List.concat (List.init (1 + int_s r 2) (fun _ -> gen_nest r ~helper ~max_depth))
  in
  let call =
    match shared with
    | Some g -> [ Printf.sprintf "  s = s + %s(a[1], 3);" g ]
    | None -> []
  in
  let body = String.concat "\n" (nests @ call) in
  {
    fn_name = name;
    fn_kind = Kernel;
    fn_params = [ "n" ];
    fn_calls_shared = shared <> None;
    fn_edit = 0;
    fn_render =
      (fun e ->
        (* the edit site: a literal on its own line *)
        Printf.sprintf
          "void %s(double *a, double *b, int *p, int n) {\n\
          \  double s = 0.0;\n\
          \  int t = 0;\n\
          \  s = s + b[0] * %d.5;\n\
           %s\n\
          \  a[0] = s + t;\n\
          \  p[0] = t;\n\
           }\n"
          name (e + 1) body);
  }

let helper_funcs helper =
  let fixed name text =
    {
      fn_name = name;
      fn_kind = Helper;
      fn_params = [];
      fn_calls_shared = false;
      fn_edit = 0;
      fn_render = (fun _ -> text);
    }
  in
  [
    fixed ("dh_" ^ helper)
      (Printf.sprintf
         "double dh_%s(double x, double y) {\n  return x * 0.5 + y;\n}\n" helper);
    fixed ("ih_" ^ helper)
      (Printf.sprintf
         "int ih_%s(int *q, int k, int m) {\n\
         \  int acc = 0;\n\
         \  for (int w = 0; w < m; w++) {\n\
         \    acc += q[k + w];\n\
         \  }\n\
         \  return acc;\n\
          }\n"
         helper);
  ]

(* The repeated declaration.  An interface edit renames its second
   parameter, which changes its signature key in the edited file. *)
let shared_func g =
  {
    fn_name = g;
    fn_kind = Shared;
    fn_params = [];
    fn_calls_shared = false;
    fn_edit = 0;
    fn_render =
      (fun e ->
        let k = if e = 0 then "k" else Printf.sprintf "k%d" e in
        Printf.sprintf
          "double %s(double x, int %s) {\n\
          \  double r = x;\n\
          \  for (int w = 0; w < %s; w++) {\n\
          \    r = r * 0.5 + 1.0;\n\
          \  }\n\
          \  return r;\n\
           }\n"
          g k k);
  }

(* ---------- apps ---------- *)

let assemble_func ~name ~d ~r =
  let pts = int_of_float (float_of_int (2 * r + 1) ** float_of_int d) in
  let axes = if d = 3 then [ "z"; "y"; "x" ] else [ "y"; "x" ] in
  let dims = List.map (fun a -> "n" ^ a) (List.rev axes) in
  (* row index: ix + nx * iy (+ nx * ny * iz) *)
  let linear pre =
    match d with
    | 3 -> Printf.sprintf "%sx + nx * %sy + nx * ny * %sz" pre pre pre
    | _ -> Printf.sprintf "%sx + nx * %sy" pre pre
  in
  let cells = String.concat " * " dims in
  let guard =
    String.concat " && "
      (List.map (fun a -> Printf.sprintf "j%s >= 0 && j%s < n%s" a a a) (List.rev axes))
  in
  let lines = ref [] in
  let add ind s = lines := (String.make ind ' ' ^ s) :: !lines in
  List.iteri
    (fun i a -> add (2 * (i + 1)) (Printf.sprintf "for (int i%s = 0; i%s < n%s; i%s++) {" a a a a))
    axes;
  let ind = 2 * (d + 1) in
  add ind (Printf.sprintf "int row = %s;" (linear "i"));
  add ind (Printf.sprintf "row_ptr[row] = %d * row;" pts);
  add ind (Printf.sprintf "int slot = %d * row;" pts);
  List.iteri
    (fun i a ->
      add (ind + (2 * i))
        (Printf.sprintf "for (int d%s = -%d; d%s <= %d; d%s++) {" a r a r a))
    axes;
  let ind2 = ind + (2 * d) in
  List.iter (fun a -> add ind2 (Printf.sprintf "int j%s = i%s + d%s;" a a a)) (List.rev axes);
  add ind2 "col_idx[slot] = 0;";
  add ind2 "vals[slot] = 0.0;";
  add ind2 (Printf.sprintf "if (%s) {" guard);
  add (ind2 + 2) (Printf.sprintf "int col = %s;" (linear "j"));
  add (ind2 + 2) "col_idx[slot] = col;";
  add (ind2 + 2) "if (col == row) {";
  (* the edit site, between [before] and [after]: the diagonal value *)
  let before = String.concat "\n" (List.rev !lines) in
  lines := [];
  add (ind2 + 2) "} else {";
  add (ind2 + 4) "vals[slot] = 0.0 - 1.0;";
  add (ind2 + 2) "}";
  add ind2 "}";
  add ind2 "slot = slot + 1;";
  for i = 2 * d downto 1 do
    add (2 * i) "}"
  done;
  add 2 (Printf.sprintf "row_ptr[%s] = %d * %s;" cells pts cells);
  let after = String.concat "\n" (List.rev !lines) in
  let sig_ =
    Printf.sprintf "void %s(%s, int *row_ptr, int *col_idx, double *vals) {" name
      (String.concat ", " (List.map (fun n -> "int " ^ n) dims))
  in
  {
    fn_name = name;
    fn_kind = Assemble;
    fn_params = dims;
    fn_calls_shared = false;
    fn_edit = 0;
    fn_render =
      (fun e ->
        Printf.sprintf "%s\n%s\n%svals[slot] = %d.0;\n%s\n}\n" sig_ before
          (String.make (ind2 + 4) ' ') ((2 * pts) - 1 + e) after);
  }

(* ---------- projects ---------- *)

type project = {
  pj_files : file array;
  pj_groups : int array array;  (** group -> indices of its files *)
}

(* [kernels] kernel files of [klo..khi] kernel functions each (loop
   nests up to [max_depth] deep), [apps] app files, optionally the
   bundled corpus.  Kernel files go into groups of four sharing one
   declaration, every second group left out so that most kernel files
   have no cross-file dependents. *)
let project ?(max_depth = 3) ~seed ~kernels ~apps ~bundled ~kernels_per_file:(klo, khi) () =
  let dt = Random.State.make [| seed; 0x6d697261 |] in
  let rngs key i = { st = Random.State.make [| key; i; 0x73747275 |]; dt } in
  let group_size = 4 in
  let n_groups = kernels / group_size in
  let group_of i =
    let g = i / group_size in
    if g < n_groups && g mod 2 = 0 then Some g else None
  in
  let kfile i =
    let r = rngs 0 i in
    let tag = Printf.sprintf "k%03d" i in
    let group = group_of i in
    let shared = Option.map (fun g -> Printf.sprintf "shared_%02d" g) group in
    let nk = klo + int_s r (khi - klo + 1) in
    let kernels =
      List.init nk (fun j ->
          kernel_func r ~helper:tag ~max_depth
            ~name:(Printf.sprintf "kern_%s_%d" tag j)
            ~shared:(if j = 0 then shared else None))
    in
    {
      fl_name = tag ^ ".mc";
      fl_class = Kernel_file;
      fl_group = group;
      fl_funcs =
        Array.of_list
          (helper_funcs tag
          @ (match shared with Some g -> [ shared_func g ] | None -> [])
          @ kernels);
      fl_fixed = "";
      fl_app = None;
    }
  in
  let afile i =
    let tag = Printf.sprintf "a%03d" i in
    (* every app is miniFE's 27-point 3-D stencil and nothing else, so
       the app class is one tight band of latencies *)
    let d = 3 and rad = 1 in
    {
      fl_name = tag ^ ".mc";
      fl_class = App_file;
      fl_group = None;
      fl_funcs =
        Array.of_list (helper_funcs tag @ [ assemble_func ~name:("assemble_" ^ tag) ~d ~r:rad ]);
      fl_fixed = "";
      fl_app = Some (d, rad);
    }
  in
  let generated =
    (* interleaved, so any prefix of the project has the same class mix *)
    let total = kernels + apps in
    let ki = ref 0 and ai = ref 0 and acc = ref [] in
    for i = 0 to total - 1 do
      if (i + 1) * apps / total > i * apps / total then begin
        acc := afile !ai :: !acc;
        incr ai
      end
      else begin
        acc := kfile !ki :: !acc;
        incr ki
      end
    done;
    List.rev !acc
  in
  let bundled_files =
    if bundled then
      List.map
        (fun (name, text) ->
          {
            fl_name = name ^ ".mc";
            fl_class = Bundled_file;
            fl_group = None;
            fl_funcs = [||];
            fl_fixed = text;
            fl_app = None;
          })
        Mira_corpus.Corpus.all
    else []
  in
  let files = Array.of_list (generated @ bundled_files) in
  let groups =
    Array.init n_groups (fun g ->
        Array.of_list
          (List.filter
             (fun i -> files.(i).fl_group = Some g)
             (List.init (Array.length files) Fun.id)))
  in
  { pj_files = files; pj_groups = groups }

type summary = {
  sm_files : int;
  sm_functions : int;
  sm_bytes : int;
  sm_class_files : (string * int) list;
}

let summary pj =
  let count c =
    Array.fold_left (fun n f -> if f.fl_class = c then n + 1 else n) 0 pj.pj_files
  in
  {
    sm_files = Array.length pj.pj_files;
    sm_functions =
      Array.fold_left
        (fun n f ->
          n
          +
          if f.fl_class = Bundled_file then
            List.length
              (Mira_srclang.Ast.all_functions (Mira_srclang.Parser.parse f.fl_fixed))
          else Array.length f.fl_funcs)
        0 pj.pj_files;
    sm_bytes =
      Array.fold_left (fun n f -> n + String.length (render f)) 0 pj.pj_files;
    sm_class_files =
      List.filter
        (fun (_, n) -> n > 0)
        (List.map
           (fun c -> (class_name c, count c))
           [ Kernel_file; App_file; Bundled_file ]);
  }

(* ---------- edits ---------- *)

type edit_class = Body_edit | App_edit | Interface_edit

let edit_class_name = function
  | Body_edit -> "body"
  | App_edit -> "app"
  | Interface_edit -> "interface"

type edit = {
  ed_class : edit_class;
  ed_file : int;
  ed_func : int;  (** index into [fl_funcs] *)
  ed_expected : int;  (** functions the session must invalidate *)
}

(* Invalidation the session must report: a body edit invalidates its
   function only; a signature edit changes the analysis closure of its
   whole file and reaches every caller of the declaration elsewhere in
   the group. *)
let expected_invalidated pj ~file ~func =
  let fl = pj.pj_files.(file) in
  match fl.fl_funcs.(func).fn_kind with
  | Shared ->
      let g = Option.get fl.fl_group in
      Array.length fl.fl_funcs
      + Array.fold_left
          (fun n i ->
            if i = file then n
            else
              n
              + Array.fold_left
                  (fun m f -> if f.fn_calls_shared then m + 1 else m)
                  0 pj.pj_files.(i).fl_funcs)
          0 pj.pj_groups.(g)
  | Helper | Kernel | Assemble -> 1

(* A seeded stream of [n] edits with exact class shares (per mille:
   body, app; interface takes the rest) in seeded order. *)
let edit_stream pj ~seed ~n ~body_pm ~app_pm =
  let rng = Random.State.make [| seed; 0x65646974 |] in
  let files = pj.pj_files in
  let idx pred =
    Array.of_list
      (List.concat
         (List.init (Array.length files) (fun i ->
              List.filter_map
                (fun j -> if pred files.(i) files.(i).fl_funcs.(j) then Some (i, j) else None)
                (List.init (Array.length files.(i).fl_funcs) Fun.id))))
  in
  let bodies = idx (fun fl f -> fl.fl_class = Kernel_file && f.fn_kind = Kernel) in
  let apps = idx (fun _ f -> f.fn_kind = Assemble) in
  let shared = idx (fun _ f -> f.fn_kind = Shared) in
  let n_body = n * body_pm / 1000 and n_app = n * app_pm / 1000 in
  let classes =
    Array.init n (fun k ->
        if k < n_body then Body_edit else if k < n_body + n_app then App_edit else Interface_edit)
  in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = classes.(i) in
    classes.(i) <- classes.(j);
    classes.(j) <- x
  done;
  Array.map
    (fun cls ->
      let pool = match cls with Body_edit -> bodies | App_edit -> apps | Interface_edit -> shared in
      let file, func = pick rng pool in
      { ed_class = cls; ed_file = file; ed_func = func;
        ed_expected = expected_invalidated pj ~file ~func })
    classes

(* Apply an edit to the project and return the edited file's new text. *)
let apply pj ed =
  let f = pj.pj_files.(ed.ed_file).fl_funcs.(ed.ed_func) in
  f.fn_edit <- f.fn_edit + 1;
  render pj.pj_files.(ed.ed_file)

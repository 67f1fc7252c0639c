open Mira_symexpr
open Mira_poly

exception Missing_parameter of string * string

let lookup fname env p =
  match List.assoc_opt p env with
  | Some v -> v
  | None -> raise (Missing_parameter (fname, p))

let eval_count fname env (c : Count.result) : float =
  match c with
  | Count.Closed e -> Expr.eval_float (fun v -> float_of_int (lookup fname env v)) e
  | Count.Deferred d ->
      let params =
        List.map (fun p -> (p, lookup fname env p)) (Domain.parameters d)
      in
      float_of_int (Enumerate.count ~params d)

let eval_mult fname env (m : Model_ir.mult) : float =
  m.scale
  *. List.fold_left
       (fun acc (sign, c) ->
         acc +. (float_of_int sign *. eval_count fname env c))
       0.0 m.terms

(* The set of mnemonics an evaluation can touch is static per
   (model, fname): the union of Update count vectors over the
   call-graph reachable functions (entries are unconditional, so every
   reachable Update contributes — possibly with weight 0). *)
let mnemonic_order (model : Model_ir.t) ~fname ~inclusive : string array =
  let seen = Hashtbl.create 8 in
  let mns = Hashtbl.create 32 in
  let rec go fname =
    if not (Hashtbl.mem seen fname) then begin
      Hashtbl.add seen fname ();
      match Model_ir.find model fname with
      | None -> ()
      | Some fm ->
          List.iter
            (fun entry ->
              match entry with
              | Model_ir.Update { counts; _ } ->
                  List.iter (fun (m, _) -> Hashtbl.replace mns m ()) counts
              | Model_ir.Call_site { callee; _ } ->
                  if inclusive then go callee)
            fm.mf_entries
    end
  in
  go fname;
  Hashtbl.fold (fun m () acc -> m :: acc) mns []
  |> List.sort compare |> Array.of_list

(* The one evaluator: walk the model from [fname], entries in order,
   each function's result memoized per (function, env).  A result is
   [width] float accumulators: [update] adds an Update entry's
   contribution (given its multiplicity), and a call site adds the
   callee's accumulators times the call multiplicity — all of them
   into the caller's parallel half when [split] and the call is inside
   a parallel loop.  The entry's parameters are checked up front, so a
   missing one raises whichever branch a guard takes. *)
let walk ~who ~inclusive ~split ~width ~update (model : Model_ir.t) ~fname
    ~env =
  let fm =
    match Model_ir.find model fname with
    | Some fm -> fm
    | None -> invalid_arg (who ^ ": no model for " ^ fname)
  in
  List.iter (fun p -> ignore (lookup fname env p)) fm.mf_params;
  let memo = Hashtbl.create 16 in
  let rec go fname (fm : Model_ir.fmodel) env =
    match Hashtbl.find_opt memo (fname, env) with
    | Some acc -> acc
    | None ->
        let acc = Array.make width 0.0 in
        List.iter
          (fun entry ->
            match entry with
            | Model_ir.Update { line; counts; mult; _ } ->
                update fname line counts mult.parallel
                  (eval_mult fname env mult) acc
            | Model_ir.Call_site { callee; bindings; mult; _ } -> (
                match Model_ir.find model callee with
                | Some cm when inclusive ->
                    let arg p =
                      match List.assoc_opt p bindings with
                      | Some (Model_ir.Bound poly) ->
                          Ratio.floor
                            (Poly.eval
                               (fun x -> Ratio.of_int (lookup fname env x))
                               poly)
                      | Some (Model_ir.Unbound name) -> lookup fname env name
                      | None -> lookup fname env p
                    in
                    let cenv = List.map (fun p -> (p, arg p)) cm.mf_params in
                    let sub = go callee cm cenv in
                    let m = eval_mult fname env mult in
                    if split && mult.parallel then
                      (* a parallel call site makes the whole callee
                         parallel *)
                      for i = 0 to (width / 2) - 1 do
                        let j = (2 * i) + 1 in
                        acc.(j) <- acc.(j) +. (m *. (sub.(2 * i) +. sub.(j)))
                      done
                    else
                      Array.iteri
                        (fun i v -> acc.(i) <- acc.(i) +. (m *. v))
                        sub
                | Some _ | None ->
                    (* exclusive evaluation, or an extern whose call
                       cost is already counted *)
                    ()))
          fm.mf_entries;
        Hashtbl.replace memo (fname, env) acc;
        acc
  in
  go fname fm env

(* Per-mnemonic counts in canonical order; with [split], mnemonic [i]
   is serial at [2i] and parallel at [2i+1]. *)
let counts ~who ~inclusive ~split model ~fname ~env =
  let mns = mnemonic_order model ~fname ~inclusive in
  let slot = Hashtbl.create 32 in
  Array.iteri (fun i mn -> Hashtbl.replace slot mn i) mns;
  let update _ _ counts parallel m acc =
    List.iter
      (fun (mn, c) ->
        let i = Hashtbl.find slot mn in
        let j = if split then (2 * i) + Bool.to_int parallel else i in
        acc.(j) <- acc.(j) +. (m *. float_of_int c))
      counts
  in
  let width = Array.length mns * if split then 2 else 1 in
  (mns, walk ~who ~inclusive ~split ~width ~update model ~fname ~env)

let pairs (mns, out) = Array.to_list (Array.mapi (fun i mn -> (mn, out.(i))) mns)

let eval model ~fname ~env =
  pairs
    (counts ~who:"Model_eval.eval" ~inclusive:true ~split:false model ~fname
       ~env)

let eval_exclusive model ~fname ~env =
  pairs
    (counts ~who:"Model_eval.eval_exclusive" ~inclusive:false ~split:false
       model ~fname ~env)

let eval_split model ~fname ~env =
  let mns, out =
    counts ~who:"Model_eval.eval_split" ~inclusive:true ~split:true model
      ~fname ~env
  in
  Array.to_list
    (Array.mapi (fun i mn -> (mn, (out.(2 * i), out.((2 * i) + 1)))) mns)

let total counts = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 counts

let count counts m =
  Option.value ~default:0.0 (List.assoc_opt m counts)

let fp_mnemonics =
  [ "addsd"; "subsd"; "mulsd"; "divsd"; "sqrtsd"; "ucomisd";
    "addpd"; "subpd"; "mulpd"; "divpd" ]

let fpi counts =
  List.fold_left (fun acc m -> acc +. count counts m) 0.0 fp_mnemonics

(* FPI under a trip-count-changing vectorizer (ablation B): on source
   lines the compiler vectorized, the binary holds the packed main
   loop AND its scalar remainder epilogue.  Bridging multiplies both
   by the full source trip count; the correction divides packed
   contributions by the lane count and drops the epilogue's scalar FP
   (it executes at most lanes-1 times per loop entry). *)
let fpi_vectorization_aware (model : Model_ir.t) ~lanes ~vectorized ~fname
    ~env =
  let lanes_f = float_of_int lanes in
  let is_packed = Mira_visa.Isa.is_packed_mnemonic in
  let update fname line counts _ m acc =
    let vec_lines =
      Option.value ~default:[] (List.assoc_opt fname vectorized)
    in
    let vectorized_line = List.mem line vec_lines in
    acc.(0) <-
      acc.(0)
      +. List.fold_left
           (fun a (mn, c) ->
             if not (List.mem mn fp_mnemonics) then a
             else if vectorized_line then
               if is_packed mn then a +. (m *. float_of_int c /. lanes_f)
               else a  (* epilogue copy: at most lanes-1 runs *)
             else a +. (m *. float_of_int c))
           0.0 counts
  in
  (walk ~who:"Model_eval.fpi_vectorization_aware" ~inclusive:true ~split:false
     ~width:1 ~update model ~fname ~env).(0)

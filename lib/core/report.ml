open Mira_arch

let categorize (arch : Archdesc.t) counts =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (m, c) ->
      match Archdesc.group_of_mnemonic arch m with
      | Some g ->
          Hashtbl.replace totals g
            (c +. Option.value ~default:0.0 (Hashtbl.find_opt totals g))
      | None -> ())
    counts;
  List.map
    (fun (g, _) -> (g, Option.value ~default:0.0 (Hashtbl.find_opt totals g)))
    arch.groups

let scientific = Predict.scientific

let table2 arch counts =
  let rows = categorize arch counts in
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%-42s %12s\n" "Category" "Count");
  List.iter
    (fun (g, c) ->
      if c > 0.0 then
        Buffer.add_string b (Printf.sprintf "%-42s %12s\n" g (scientific c)))
    rows;
  Buffer.contents b

let distribution arch counts =
  let rows = List.filter (fun (_, c) -> c > 0.0) (categorize arch counts) in
  let total = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 rows in
  let b = Buffer.create 256 in
  List.iter
    (fun (g, c) ->
      let pct = if total = 0.0 then 0.0 else 100.0 *. c /. total in
      let bar = String.make (int_of_float (pct /. 2.0)) '#' in
      Buffer.add_string b (Printf.sprintf "%-42s %5.1f%% %s\n" g pct bar))
    rows;
  Buffer.contents b

let group_count arch counts group =
  Option.value ~default:0.0 (List.assoc_opt group (categorize arch counts))

let arithmetic_intensity arch counts =
  let arith = group_count arch counts "SSE2 packed arithmetic instruction" in
  let move = group_count arch counts "SSE2 data movement instruction" in
  if move = 0.0 then 0.0 else arith /. move

let roofline_gflops arch counts =
  (Predict.of_counts arch counts).Predict.gflops_attainable

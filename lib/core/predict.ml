open Mira_arch

type t = {
  arch : string;
  instructions : float;
  cycles : float;
  seconds : float;
  flops : float;
  bytes : float;
  arithmetic_intensity : float;
  gflops_achieved : float;
  gflops_attainable : float;
  bound : [ `Compute | `Memory | `Balanced ];
}

let scientific v =
  if v = 0.0 then "0"
  else
    let e = int_of_float (floor (log10 (Float.abs v))) in
    let m = v /. (10.0 ** float_of_int e) in
    (* two significant decimals, like 1.93E8 *)
    Printf.sprintf "%.4gE%d" m e

let of_counts (arch : Archdesc.t) counts =
  let lanes = float_of_int (Archdesc.vector_lanes arch) in
  let instructions = List.fold_left (fun a (_, c) -> a +. c) 0.0 counts in
  let cycles =
    List.fold_left
      (fun a (m, c) -> a +. (c *. Archdesc.cost_of_mnemonic arch m))
      0.0 counts
  in
  let seconds = cycles /. (arch.clock_ghz *. 1e9) in
  let flops =
    List.fold_left
      (fun a (m, c) ->
        match m with
        | "addsd" | "subsd" | "mulsd" | "divsd" | "sqrtsd" -> a +. c
        | "addpd" | "subpd" | "mulpd" | "divpd" -> a +. (lanes *. c)
        | _ -> a)
      0.0 counts
  in
  let bytes =
    List.fold_left
      (fun a (m, c) ->
        match m with
        | "movsd" -> a +. (8.0 *. c)
        | "movapd" -> a +. (8.0 *. lanes *. c)
        | _ -> a)
      0.0 counts
  in
  let ai = if bytes = 0.0 then Float.infinity else flops /. bytes in
  let attainable =
    if bytes = 0.0 then arch.peak_gflops
    else Float.min arch.peak_gflops (ai *. arch.mem_gbps)
  in
  let achieved = if seconds = 0.0 then 0.0 else flops /. seconds /. 1e9 in
  let ridge = arch.peak_gflops /. Float.max arch.mem_gbps 1e-9 in
  let bound =
    if bytes = 0.0 then `Compute
    else if ai > ridge *. 1.1 then `Compute
    else if ai < ridge /. 1.1 then `Memory
    else `Balanced
  in
  {
    arch = arch.name;
    instructions;
    cycles;
    seconds;
    flops;
    bytes;
    arithmetic_intensity = ai;
    gflops_achieved = achieved;
    gflops_attainable = attainable;
    bound;
  }

let compare_architectures archs counts =
  List.map (fun a -> (a.Archdesc.name, of_counts a counts)) archs
  |> List.sort (fun (_, a) (_, b) -> compare a.seconds b.seconds)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>architecture %s:@,\
     \  instructions          %s@,\
     \  est. cycles           %s@,\
     \  est. single-core time %.6f s@,\
     \  FP operations         %s@,\
     \  FP memory traffic     %s bytes@,\
     \  arithmetic intensity  %.3f flop/byte@,\
     \  achieved (est.)       %.2f GFLOP/s@,\
     \  roofline attainable   %.2f GFLOP/s@,\
     \  verdict               %s-bound@]"
    t.arch
    (scientific t.instructions)
    (scientific t.cycles)
    t.seconds
    (scientific t.flops)
    (scientific t.bytes)
    t.arithmetic_intensity t.gflops_achieved t.gflops_attainable
    (match t.bound with
    | `Compute -> "compute"
    | `Memory -> "memory"
    | `Balanced -> "balance")

let to_string t = Format.asprintf "%a" pp t

(* ---------- shared-memory estimate (the paper's future work) ---------- *)

type parallel_t = {
  p_arch : string;
  cores_used : int;
  serial_cycles : float;
  parallel_cycles : float;
  seconds_parallel : float;
  speedup : float;  (* vs the same workload on one core *)
  efficiency : float;  (* speedup / cores *)
}

let cycles_of arch counts =
  List.fold_left
    (fun a (m, c) -> a +. (c *. Archdesc.cost_of_mnemonic arch m))
    0.0 counts

let parallel_estimate (arch : Archdesc.t) ?cores split =
  let cores = Option.value ~default:arch.cores cores in
  let cores = max 1 cores in
  let serial = List.map (fun (m, (s, _)) -> (m, s)) split in
  let par = List.map (fun (m, (_, p)) -> (m, p)) split in
  let cs = cycles_of arch serial and cp = cycles_of arch par in
  let t1 = (cs +. cp) /. (arch.clock_ghz *. 1e9) in
  let tn = (cs +. (cp /. float_of_int cores)) /. (arch.clock_ghz *. 1e9) in
  {
    p_arch = arch.name;
    cores_used = cores;
    serial_cycles = cs;
    parallel_cycles = cp;
    seconds_parallel = tn;
    speedup = (if tn = 0.0 then 1.0 else t1 /. tn);
    efficiency =
      (if tn = 0.0 then 1.0 else t1 /. tn /. float_of_int cores);
  }

let pp_parallel ppf t =
  Format.fprintf ppf
    "@[<v>architecture %s, %d cores:@,\
     \  serial cycles    %s@,\
     \  parallel cycles  %s (distributed)@,\
     \  est. time        %.6f s@,\
     \  est. speedup     %.2fx (efficiency %.0f%%)@]"
    t.p_arch t.cores_used
    (scientific t.serial_cycles)
    (scientific t.parallel_cycles)
    t.seconds_parallel t.speedup (100.0 *. t.efficiency)

let parallel_to_string t = Format.asprintf "%a" pp_parallel t

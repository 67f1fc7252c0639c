(* Spans recorded from the benchmark's own calls into each layer's
   public functions.  Spans live in preallocated arrays and are written
   out only when the run ends; a layer's self time is its span's
   duration minus the time its child spans cover, and the same holds
   for minor-heap words allocated (an exact count, unlike time). *)

type t = {
  names : string array;  (** layer id -> name *)
  layer : int array;
  tag : int array;  (** caller-chosen class of the enclosing operation *)
  t0 : float array;
  t1 : float array;
  w0 : float array;
  w1 : float array;
  child_t : float array;
  child_w : float array;
  parent : int array;
  stack : int array;
  mutable sp : int;
  mutable n : int;
  mutable dropped : int;
  mutable cur_tag : int;
}

let create ~names ~cap =
  let f () = Array.make cap 0.0 and i () = Array.make cap 0 in
  {
    names;
    layer = i ();
    tag = i ();
    t0 = f ();
    t1 = f ();
    w0 = f ();
    w1 = f ();
    child_t = f ();
    child_w = f ();
    parent = i ();
    stack = Array.make 64 0;
    sp = 0;
    n = 0;
    dropped = 0;
    cur_tag = 0;
  }

let set_tag t tag = t.cur_tag <- tag

let enter t l =
  let i = t.n in
  if i >= Array.length t.layer || t.sp >= Array.length t.stack then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    t.n <- i + 1;
    t.layer.(i) <- l;
    t.tag.(i) <- t.cur_tag;
    t.parent.(i) <- (if t.sp = 0 then -1 else t.stack.(t.sp - 1));
    t.child_t.(i) <- 0.0;
    t.child_w.(i) <- 0.0;
    t.stack.(t.sp) <- i;
    t.sp <- t.sp + 1;
    t.w0.(i) <- Gc.minor_words ();
    t.t0.(i) <- Unix.gettimeofday ();
    i
  end

let leave t i =
  if i >= 0 then begin
    t.t1.(i) <- Unix.gettimeofday ();
    t.w1.(i) <- Gc.minor_words ();
    t.sp <- t.sp - 1;
    let p = t.parent.(i) in
    if p >= 0 then begin
      t.child_t.(p) <- t.child_t.(p) +. (t.t1.(i) -. t.t0.(i));
      t.child_w.(p) <- t.child_w.(p) +. (t.w1.(i) -. t.w0.(i))
    end
  end

let span t l f =
  let i = enter t l in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

let duration t i = t.t1.(i) -. t.t0.(i)
let self_time t i = duration t i -. t.child_t.(i)
let self_words t i = t.w1.(i) -. t.w0.(i) -. t.child_w.(i)

type agg = { mutable a_time : float; mutable a_words : float }

(* Per-layer self time and words, over spans whose tag satisfies
   [keep]. *)
let aggregate ?(keep = fun _ -> true) t =
  let a = Array.init (Array.length t.names) (fun _ -> { a_time = 0.0; a_words = 0.0 }) in
  for i = 0 to t.n - 1 do
    if keep t.tag.(i) then begin
      let g = a.(t.layer.(i)) in
      g.a_time <- g.a_time +. self_time t i;
      g.a_words <- g.a_words +. self_words t i
    end
  done;
  a

(* Chrome trace-event JSON (complete events, microseconds), which
   Perfetto and chrome://tracing open. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      let base = if t.n > 0 then t.t0.(0) else 0.0 in
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"class\":%d,\"self_us\":%.3f,\"self_words\":%.0f}}\n"
          (if i = 0 then "" else ",")
          t.names.(t.layer.(i))
          ((t.t0.(i) -. base) *. 1e6)
          (duration t i *. 1e6) t.tag.(i)
          (self_time t i *. 1e6) (self_words t i)
      done;
      output_string oc "]}\n")

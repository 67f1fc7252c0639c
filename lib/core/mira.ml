type t = { input : Input_processor.t; model : Model_ir.t }

let analyze ?level ?(source_name = "<memory>") source =
  let input, parts =
    Input_processor.parts (Input_processor.prepare ?level source)
  in
  { input; model = Metric_gen.assemble ~source_name parts }

let analyze_batch ?jobs ?cache ?level ?limits ?faults sources =
  Batch.run ?jobs ?cache ?level ?limits ?faults
    (List.map
       (fun (name, text) -> { Batch.src_name = name; src_text = text })
       sources)

let counts t ~fname ~env = Model_eval.eval t.model ~fname ~env
let counts_split t ~fname ~env = Model_eval.eval_split t.model ~fname ~env
let fpi t ~fname ~env = Model_eval.fpi (counts t ~fname ~env)
let python_model t = Python_emit.emit t.model

let parameters t ~fname = (Model_ir.find_exn t.model fname).mf_params
let warnings t = Model_ir.all_warnings t.model
let source_dot t = Mira_srclang.Dot.of_program t.input.ast
let binary_dot t = Mira_visa.Binast.to_dot t.input.binast

(* one-shot daemon access, so library users never touch the frame
   codec: [with_endpoint e (fun c -> Client.request c Ping)] *)
let with_endpoint = Client.with_endpoint

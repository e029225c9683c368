exception Fault of string

type outcome = { exit_value : int; output : int list }

type t = {
  lib : Regions.Region.t;
  mut : Regions.Mutator.t;
  mem : Sim.Memory.t;
  prog : Bytecode.program;
  max_steps : int;
  mutable steps : int;
  mutable out_rev : int list;
}

let fault fmt = Fmt.kstr (fun s -> raise (Fault s)) fmt

let create ?(max_steps = 50_000_000) lib prog =
  let mut = Regions.Region.mutator lib in
  if Array.length prog.Bytecode.bp_globals > Regions.Mutator.globals_words mut
  then fault "too many globals for the mutator's global area";
  {
    lib;
    mut;
    mem = Regions.Region.memory lib;
    prog;
    max_steps;
    steps = 0;
    out_rev = [];
  }

let truth v = if v then 1 else 0

let eval_binop op a b =
  match op with
  | Ast.Add -> (a + b) land 0xFFFFFFFF
  | Ast.Sub -> (a - b) land 0xFFFFFFFF
  | Ast.Mul -> a * b land 0xFFFFFFFF
  | Ast.Div -> if b = 0 then fault "division by zero" else a / b
  | Ast.Mod -> if b = 0 then fault "modulo by zero" else a mod b
  | Ast.Eq -> truth (a = b)
  | Ast.Ne -> truth (a <> b)
  | Ast.Lt -> truth (a < b)
  | Ast.Le -> truth (a <= b)
  | Ast.Gt -> truth (a > b)
  | Ast.Ge -> truth (a >= b)
  | Ast.And -> truth (a <> 0 && b <> 0)
  | Ast.Or -> truth (a <> 0 || b <> 0)

(* Execute function [fid]; the caller has pushed the arguments onto
   its own operand stack.  Returns the callee's return value. *)
let rec exec_func t fid (caller : Regions.Mutator.frame option) =
  let f = t.prog.Bytecode.bp_funcs.(fid) in
  let fr =
    Regions.Mutator.push_frame t.mut ~nslots:f.Bytecode.bf_nslots
      ~ptr_slots:f.Bytecode.bf_ptr_slots
  in
  (* Move arguments from the caller's operand stack into our slots
     (they were pushed left to right, so pop right to left). *)
  (match caller with
  | Some cfr ->
      let nparams = f.Bytecode.bf_nparams in
      let args = Array.make nparams 0 in
      for i = nparams - 1 downto 0 do
        args.(i) <- Regions.Mutator.pop_operand t.mut cfr
      done;
      for i = 0 to nparams - 1 do
        if Regions.Mutator.is_ptr_slot fr i then
          Regions.Region.set_local_ptr t.lib fr i args.(i)
        else Regions.Mutator.set_local t.mut fr i args.(i)
      done
  | None -> ());
  let code = f.Bytecode.bf_code in
  let cost = Sim.Memory.cost t.mem in
  let push v ~is_ptr = Regions.Mutator.push_operand t.mut fr ~value:v ~is_ptr in
  let pop () = Regions.Mutator.pop_operand t.mut fr in
  let result = ref 0 in
  let rec step pc =
    if pc >= Array.length code then fault "fell off code in %s" f.Bytecode.bf_name;
    t.steps <- t.steps + 1;
    if t.steps > t.max_steps then fault "step limit exceeded";
    Sim.Cost.instr cost 1 (* dispatch *);
    match code.(pc) with
    | Bytecode.Push_int n ->
        push n ~is_ptr:false;
        step (pc + 1)
    | Bytecode.Pop ->
        ignore (pop ());
        step (pc + 1)
    | Bytecode.Load_local (slot, is_ptr) ->
        push (Regions.Mutator.get_local fr slot) ~is_ptr;
        step (pc + 1)
    | Bytecode.Store_local (slot, is_ptr) ->
        let v = pop () in
        if is_ptr then Regions.Region.set_local_ptr t.lib fr slot v
        else Regions.Mutator.set_local t.mut fr slot v;
        step (pc + 1)
    | Bytecode.Load_global (idx, is_ptr) ->
        push (Sim.Memory.load t.mem (Regions.Mutator.global_addr t.mut idx)) ~is_ptr;
        step (pc + 1)
    | Bytecode.Store_global (idx, is_ptr) ->
        let v = pop () in
        let addr = Regions.Mutator.global_addr t.mut idx in
        if is_ptr then Regions.Region.write_ptr t.lib ~addr v
        else Sim.Memory.store t.mem addr v;
        step (pc + 1)
    | Bytecode.Load_field (off, is_ptr) ->
        let base = pop () in
        if base = 0 then fault "null pointer dereference in %s" f.Bytecode.bf_name;
        push (Sim.Memory.load t.mem (base + off)) ~is_ptr;
        step (pc + 1)
    | Bytecode.Store_field (off, is_ptr) ->
        let v = pop () in
        let base = pop () in
        if base = 0 then fault "null pointer store in %s" f.Bytecode.bf_name;
        if is_ptr then Regions.Region.write_ptr t.lib ~addr:(base + off) v
        else Sim.Memory.store t.mem (base + off) v;
        step (pc + 1)
    | Bytecode.Binop op ->
        let b = pop () in
        let a = pop () in
        push (eval_binop op a b) ~is_ptr:false;
        step (pc + 1)
    | Bytecode.Unop Ast.Neg ->
        let a = pop () in
        push (-a land 0xFFFFFFFF) ~is_ptr:false;
        step (pc + 1)
    | Bytecode.Unop Ast.Not ->
        let a = pop () in
        push (truth (a = 0)) ~is_ptr:false;
        step (pc + 1)
    | Bytecode.Jump l -> step l
    | Bytecode.Jz l ->
        let v = pop () in
        if v = 0 then step l else step (pc + 1)
    | Bytecode.Call callee ->
        Sim.Cost.instr cost 3 (* call overhead *);
        let g = t.prog.Bytecode.bp_funcs.(callee) in
        let ret = exec_func t callee (Some fr) in
        (* Did the callee produce a value?  Look at its Ret sites: all
           agree by construction; use the last instruction. *)
        let last = g.Bytecode.bf_code.(Array.length g.Bytecode.bf_code - 1) in
        (match last with
        | Bytecode.Ret { has_value = true; is_ptr } -> push ret ~is_ptr
        | Bytecode.Ret { has_value = false; _ } -> ()
        | _ -> assert false);
        step (pc + 1)
    | Bytecode.Ret { has_value; _ } ->
        if has_value then result := pop ();
        Regions.Mutator.pop_frame t.mut
    | Bytecode.New_region ->
        push (Regions.Region.newregion t.lib) ~is_ptr:true;
        step (pc + 1)
    | Bytecode.Delete_region slot ->
        let ok =
          Regions.Region.deleteregion t.lib (Regions.Region.In_frame (fr, slot))
        in
        push (truth ok) ~is_ptr:false;
        step (pc + 1)
    | Bytecode.Ralloc sid ->
        let r = pop () in
        if r = 0 then fault "ralloc on null region";
        let layout = t.prog.Bytecode.bp_structs.(sid) in
        push (Regions.Region.ralloc t.lib r layout) ~is_ptr:true;
        step (pc + 1)
    | Bytecode.Rarrayalloc sid ->
        let n = pop () in
        let r = pop () in
        if r = 0 then fault "rallocarray on null region";
        if n <= 0 then fault "rallocarray count must be positive";
        let layout = t.prog.Bytecode.bp_structs.(sid) in
        push (Regions.Region.rarrayalloc t.lib r ~n layout) ~is_ptr:true;
        step (pc + 1)
    | Bytecode.Ptr_add size ->
        let i = pop () in
        let p = pop () in
        if p = 0 then fault "address arithmetic on null pointer";
        push (p + (i * size)) ~is_ptr:true;
        step (pc + 1)
    | Bytecode.Rstralloc ->
        let size = pop () in
        let r = pop () in
        if r = 0 then fault "rstralloc on null region";
        if size <= 0 then fault "rstralloc size must be positive";
        push (Regions.Region.rstralloc t.lib r size) ~is_ptr:false;
        step (pc + 1)
    | Bytecode.Regionof ->
        let p = pop () in
        push (Regions.Region.regionof t.lib p) ~is_ptr:true;
        step (pc + 1)
    | Bytecode.Print ->
        let v = pop () in
        t.out_rev <- v :: t.out_rev;
        step (pc + 1)
  in
  step 0;
  !result

let run t =
  t.out_rev <- [];
  t.steps <- 0;
  let exit_value = exec_func t t.prog.Bytecode.bp_main None in
  { exit_value; output = List.rev t.out_rev }

let run_source ?(safe = true) ?max_steps src =
  let prog = Compile.compile src in
  let mem = Sim.Memory.create ~with_cache:true () in
  let mut = Regions.Mutator.create mem in
  let cleanups = Regions.Cleanup.create () in
  let lib = Regions.Region.create ~safe cleanups mut in
  let vm = create ?max_steps lib prog in
  (run vm, lib)

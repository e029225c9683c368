(** Compiler from the typed IR to stack bytecode. *)

val compile : string -> Bytecode.program
(** Front end in one call: lex, parse, typecheck, compile.
    @raise Lexer.Error, Parser.Error, Typecheck.Error *)

//! # f90d-frontend — the Fortran 90D/HPF front end
//!
//! The paper obtained its Fortran 90 parser from ParaSoft; we build our
//! own for the language subset the compiler consumes (ARCHITECTURE.md,
//! "The compile pipeline", step 1):
//!
//! * free-form Fortran 90 with `&` continuations and `!` comments;
//! * `PROGRAM` / `SUBROUTINE` units, type declarations with array
//!   specs, `PARAMETER` constants;
//! * array expressions and sections, `WHERE`/`ELSEWHERE`, single and
//!   multi-statement `FORALL` (with masks), `DO`, `IF`, `CALL`, `PRINT`;
//! * the Fortran D / HPF mapping directives on `C$` / `!HPF$` / `!F90D$`
//!   lines: `PROCESSORS`, `TEMPLATE`/`DECOMPOSITION`, `ALIGN`,
//!   `DISTRIBUTE` (BLOCK, CYCLIC, CYCLIC(K), `*`), plus the executable
//!   `REDISTRIBUTE` extension;
//! * the Table-3 intrinsics in expressions.
//!
//! Pipeline: [`lexer`] → [`parser`] → [`sema`] (symbol/ type / directive
//! resolution) → [`mod@normalize`], which rewrites every array assignment and
//! `WHERE` into an equivalent `FORALL` (paper §2: "transforms each array
//! assignment statement and where statement into equivalent forall
//! statement with no loss of information") and converts the program to
//! the 0-based index space the rest of the system uses.

#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod normalize;
pub mod parser;
pub mod sema;

pub use ast::*;
pub use lexer::{lex, Token, TokenKind};
pub use normalize::normalize;
pub use parser::parse;
pub use sema::{analyze, AnalyzedProgram, ArrayInfo, SemaError};

/// Convenience: lex + parse + analyze + normalize in one call.
pub fn compile_front(source: &str) -> Result<AnalyzedProgram, String> {
    let tokens = lex(source).map_err(|e| format!("lex error: {e}"))?;
    let prog = parse(&tokens).map_err(|e| format!("parse error: {e}"))?;
    let mut analyzed = analyze(&prog).map_err(|e| format!("semantic error: {e}"))?;
    normalize(&mut analyzed);
    Ok(analyzed)
}

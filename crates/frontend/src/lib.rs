//! Regular-expression front-end: parsing text patterns into an AST.
//!
//! The paper's compiler front-end uses ANTLR4 for "syntax and grammar
//! checking, ensuring that input REs are well-formed and employ only
//! supported operations", producing an AST that the `regex` dialect is then
//! built from (§3). This crate replaces ANTLR with a hand-written
//! recursive-descent parser over the same grammar:
//!
//! ```text
//! regex        := '^'? alternation '$'?
//! alternation  := concatenation ('|' concatenation)*
//! concatenation:= piece*
//! piece        := atom quantifier?
//! atom         := literal | '.' | class | '(' alternation ')'
//! quantifier   := '*' | '+' | '?' | '{' INT (',' INT?)? '}'
//! class        := '[' '^'? (char | char '-' char | escape)+ ']'
//! ```
//!
//! Supported escapes: `\n \t \r \0 \xNN`, identity escapes for all
//! metacharacters, and the perl classes `\d \D \w \W \s \S` (sugar for
//! character classes).
//!
//! A leading `^` disables the implicit `.*` prefix and a trailing `$`
//! disables the implicit `.*` suffix, exactly as the paper describes for
//! `RootOp`'s `hasPrefix`/`hasSuffix` arguments.
//!
//! # Example
//!
//! ```
//! let ast = regex_frontend::parse("(ab)|c{3,6}d+")?;
//! assert!(ast.has_prefix && ast.has_suffix);
//! assert_eq!(ast.alternation.alternatives.len(), 2);
//! # Ok::<(), regex_frontend::ParseRegexError>(())
//! ```

pub mod ast;
pub mod parser;

pub use ast::{Alternation, Atom, Concatenation, Piece, Quantifier, RegexAst, Span};
pub use mlir_lite::ByteSet;
pub use parser::{parse, ParseRegexError};

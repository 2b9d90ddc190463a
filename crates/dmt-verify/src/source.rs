//! Structural view over a lexed file: brace matching, `#[cfg(test)]`
//! regions, function body spans, and the `// SAFETY:` comment convention.
//!
//! Everything here is computed over the token stream of [`crate::lexer`] —
//! no parsing, no AST. The three structural questions the lints need:
//!
//! * **Is this token test-only code?** Items under a `#[cfg(test)]`
//!   attribute (the workspace convention: `#[cfg(test)] mod tests { … }`)
//!   are exempt from the production-code lints.
//! * **Which functions enclose this token?** The hot-path allocation lint
//!   designates `(file, fn)` pairs; a token trips it only inside a
//!   designated function's body.
//! * **Is this `unsafe` justified?** The contiguous `//` comment block
//!   directly above the `unsafe` token's statement (attribute lines like
//!   `#[allow(unsafe_code)]` may sit between) must open with `// SAFETY:`.

use crate::lexer::{tokenize, Token, TokenKind};

/// A function body: the function's name and the token-index range of its
/// `{ … }` body (inclusive of both braces). Nested functions produce nested
/// spans; closures are part of their enclosing function's span.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's identifier.
    pub name: String,
    /// Token index of the opening `{`.
    pub body_start: usize,
    /// Token index of the matching `}`.
    pub body_end: usize,
}

/// One lexed and structurally indexed source file.
pub struct SourceFile<'a> {
    /// Workspace-relative path with `/` separators (diagnostic identity).
    pub rel_path: String,
    /// The lexed token stream (comments included).
    pub tokens: Vec<Token<'a>>,
    /// Per token: inside an item gated by `#[cfg(test)]`.
    in_test: Vec<bool>,
    fns: Vec<FnSpan>,
    lines: Vec<&'a str>,
    /// `matching[i] = j` for an opening `{` at token i whose match is at j.
    matching: Vec<Option<usize>>,
}

impl<'a> SourceFile<'a> {
    /// Lex `source` and build the structural indices.
    pub fn parse(rel_path: &str, source: &'a str) -> Self {
        let tokens = tokenize(source);
        let matching = match_braces(&tokens);
        let in_test = mark_test_regions(&tokens, &matching);
        let fns = collect_fns(&tokens, &matching);
        Self {
            rel_path: rel_path.replace('\\', "/"),
            tokens,
            in_test,
            fns,
            lines: source.lines().collect(),
            matching,
        }
    }

    /// Whether the token at `idx` is inside a `#[cfg(test)]`-gated item.
    pub fn is_test(&self, idx: usize) -> bool {
        self.in_test.get(idx).copied().unwrap_or(false)
    }

    /// Names of every function whose body contains the token at `idx`
    /// (outermost first).
    pub fn enclosing_fns(&self, idx: usize) -> impl Iterator<Item = &str> {
        self.fns
            .iter()
            .filter(move |f| f.body_start < idx && idx < f.body_end)
            .map(|f| f.name.as_str())
    }

    /// All function spans (for the hot-path lint's existence check: a
    /// designated function that no longer exists is a config error).
    pub fn fn_spans(&self) -> &[FnSpan] {
        &self.fns
    }

    /// The token index of the `}` matching an opening `{` at `idx`.
    pub fn matching_brace(&self, idx: usize) -> Option<usize> {
        self.matching.get(idx).copied().flatten()
    }

    /// The `// SAFETY:` convention: walking up from the line above `line`,
    /// skipping attribute lines, the first thing encountered must be a
    /// contiguous `//` comment block whose **first** line starts with
    /// `// SAFETY:`. Blank lines, code, or a comment block opening with
    /// anything else fail the check.
    pub fn has_safety_comment_above(&self, line: u32) -> bool {
        let mut n = (line as usize).saturating_sub(1); // index of the line above
                                                       // Skip attribute lines between the comment and the unsafe site.
        while n >= 1 {
            let text = self.lines[n - 1].trim_start();
            if text.starts_with("#[") || text.starts_with("#![") {
                n -= 1;
            } else {
                break;
            }
        }
        // Walk to the top of the contiguous comment block.
        let mut saw_comment = false;
        let mut first_comment_line = 0usize;
        while n >= 1 {
            let text = self.lines[n - 1].trim_start();
            if text.starts_with("//") {
                saw_comment = true;
                first_comment_line = n;
                n -= 1;
            } else {
                break;
            }
        }
        saw_comment
            && self.lines[first_comment_line - 1]
                .trim_start()
                .starts_with("// SAFETY:")
    }
}

/// Match `{`/`}` pairs over the non-comment tokens.
fn match_braces(tokens: &[Token<'_>]) -> Vec<Option<usize>> {
    let mut matching = vec![None; tokens.len()];
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_comment() {
            continue;
        }
        if t.is_punct("{") {
            stack.push(i);
        } else if t.is_punct("}") {
            if let Some(open) = stack.pop() {
                matching[open] = Some(i);
            }
        }
    }
    matching
}

/// Mark every token inside an item gated by the exact attribute
/// `#[cfg(test)]`. The item extends to the matching `}` of its first
/// top-level `{`, or to the first top-level `;` (attribute on a `use`).
fn mark_test_regions(tokens: &[Token<'_>], matching: &[Option<usize>]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let at = |k: usize| -> Option<&Token<'_>> { code.get(k).map(|&i| &tokens[i]) };
    for k in 0..code.len() {
        let is_cfg_test = at(k).is_some_and(|t| t.is_punct("#"))
            && at(k + 1).is_some_and(|t| t.is_punct("["))
            && at(k + 2).is_some_and(|t| t.is_ident("cfg"))
            && at(k + 3).is_some_and(|t| t.is_punct("("))
            && at(k + 4).is_some_and(|t| t.is_ident("test"))
            && at(k + 5).is_some_and(|t| t.is_punct(")"))
            && at(k + 6).is_some_and(|t| t.is_punct("]"));
        if !is_cfg_test {
            continue;
        }
        // Find the end of the attached item: first `{` at bracket/paren
        // depth 0 (→ its matching `}`) or a top-level `;`.
        let mut depth = 0i32;
        let mut m = k + 7;
        let end_tok = loop {
            let Some(&i) = code.get(m) else {
                break tokens.len().saturating_sub(1);
            };
            let t = &tokens[i];
            if depth == 0 && t.is_punct("{") {
                break matching[i].unwrap_or(tokens.len() - 1);
            }
            if depth == 0 && t.is_punct(";") {
                break i;
            }
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            }
            m += 1;
        };
        let start_tok = code[k];
        for flag in in_test.iter_mut().take(end_tok + 1).skip(start_tok) {
            *flag = true;
        }
    }
    in_test
}

/// Collect `fn name … { body }` spans. Signatures without a body (trait
/// declarations) and `fn`-pointer types (no identifier after `fn`) are
/// skipped.
fn collect_fns(tokens: &[Token<'_>], matching: &[Option<usize>]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    for k in 0..code.len() {
        if !tokens[code[k]].is_ident("fn") {
            continue;
        }
        let Some(&name_idx) = code.get(k + 1) else {
            continue;
        };
        if tokens[name_idx].kind != TokenKind::Ident {
            continue; // `fn(usize) -> usize` pointer type
        }
        // Scan for the body `{` at paren/bracket depth 0; `;` first means a
        // bodyless signature.
        let mut depth = 0i32;
        let mut m = k + 2;
        while let Some(&i) = code.get(m) {
            let t = &tokens[i];
            if depth == 0 && t.is_punct("{") {
                if let Some(end) = matching[i] {
                    fns.push(FnSpan {
                        name: tokens[name_idx].text.to_string(),
                        body_start: i,
                        body_end: end,
                    });
                }
                break;
            }
            if depth == 0 && t.is_punct(";") {
                break;
            }
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            }
            m += 1;
        }
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
fn hot(x: &mut [f64]) {
    for v in x.iter_mut() { *v += 1.0; }
}

#[cfg(test)]
mod tests {
    fn helper() { let v: Vec<usize> = (0..3).collect(); }
}

impl Foo {
    fn method(&self) -> usize { self.0.unwrap() }
}
"#;

    #[test]
    fn test_regions_cover_the_gated_mod_only() {
        let f = SourceFile::parse("sample.rs", SAMPLE);
        let collect = f
            .tokens
            .iter()
            .position(|t| t.is_ident("collect"))
            .expect("collect token");
        assert!(f.is_test(collect));
        let unwrap = f
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        assert!(!f.is_test(unwrap));
    }

    #[test]
    fn enclosing_fns_resolve_method_bodies() {
        let f = SourceFile::parse("sample.rs", SAMPLE);
        let unwrap = f
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        let names: Vec<&str> = f.enclosing_fns(unwrap).collect();
        assert_eq!(names, ["method"]);
        assert_eq!(f.fn_spans().len(), 3);
    }

    #[test]
    fn safety_comment_convention() {
        let src = "\
// SAFETY: the pointer outlives the call.
// Second line of the argument.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

// Not a safety comment.
unsafe fn nope() {}

unsafe fn bare() {}
";
        let f = SourceFile::parse("s.rs", src);
        let unsafe_lines: Vec<u32> = f
            .tokens
            .iter()
            .filter(|t| t.is_ident("unsafe"))
            .map(|t| t.line)
            .collect();
        assert_eq!(unsafe_lines, [4, 7, 9]);
        assert!(f.has_safety_comment_above(4));
        assert!(!f.has_safety_comment_above(7), "wrong opening line");
        assert!(!f.has_safety_comment_above(9), "no comment at all");
    }

    #[test]
    fn cfg_test_on_a_single_fn() {
        let src = "#[cfg(test)]\nfn probe() { x.unwrap(); }\nfn real() { y.unwrap(); }";
        let f = SourceFile::parse("s.rs", src);
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(f.is_test(unwraps[0]));
        assert!(!f.is_test(unwraps[1]));
    }

    #[test]
    fn cfg_debug_assertions_is_not_a_test_region() {
        let src = "#[cfg(debug_assertions)]\nfn checked() { x.unwrap(); }";
        let f = SourceFile::parse("s.rs", src);
        let unwrap = f
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap");
        assert!(!f.is_test(unwrap));
    }
}

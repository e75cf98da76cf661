//! SQL front end for the benchmark dialect of Table III.
//!
//! Supported shapes (case-insensitive keywords):
//!
//! ```sql
//! SELECT SUM(A) FROM ts SW(0, 1000);                        -- Q1
//! SELECT AVG(A) FROM ts(T, A) SW(0, 1000);                  -- Q2
//! SELECT SUM(A) FROM (SELECT * FROM ts WHERE A > 10);       -- Q3
//! SELECT ts1.A + ts2.A FROM ts1, ts2;                       -- Q4
//! SELECT * FROM ts1 UNION ts2 ORDER BY TIME;                -- Q5
//! SELECT * FROM ts1, ts2;                                   -- Q6
//! SELECT AVG(v) FROM v WHERE time >= 3 AND time <= 5;       -- Example 2
//! SELECT P95(A) FROM ts GROUP BY TIME(1000);                 -- bucketed quantile
//! SELECT RATE(A) FROM ts WHERE time >= 5000 GROUP BY TIME(60000);
//! ```
//!
//! `WHERE` accepts conjunctions of comparisons over `time` and the value
//! column (any other identifier). Strict comparisons are normalized to
//! inclusive integer bounds (`A > a` ⇒ `A ≥ a+1`) and marked strict, so
//! a float series compares against `a` itself.
//!
//! `GROUP BY TIME(dt)` is the epoch-aligned spelling of the `SW(t_min,
//! dt)` sliding window: the bucket origin snaps the `WHERE` time lower
//! bound (when one is given) down to a multiple of `dt`, so the same
//! interval always produces the same bucket boundaries regardless of the
//! filter. Without a time filter the origin is 0.

use crate::expr::{AggFunc, BinOp, CmpOp, PairAggFunc, Plan, Predicate};
use crate::{Error, Result};

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(i64),
    Star,
    LParen,
    RParen,
    Comma,
    Dot,
    Plus,
    Minus,
    Semicolon,
    Cmp(Cmp),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
}

fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Cmp(Cmp::Eq));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Cmp(Cmp::Le));
                    i += 2;
                } else {
                    tokens.push(Token::Cmp(Cmp::Lt));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Cmp(Cmp::Ge));
                    i += 2;
                } else {
                    tokens.push(Token::Cmp(Cmp::Gt));
                    i += 1;
                }
            }
            '-' => {
                // Negative literal or subtraction; numbers only follow
                // comparisons, commas or parens in this dialect.
                if matches!(
                    tokens.last(),
                    Some(Token::Cmp(_)) | Some(Token::Comma) | Some(Token::LParen) | None
                ) {
                    let (n, used) = read_number(&input[i..])?;
                    tokens.push(Token::Number(n));
                    i += used;
                } else {
                    tokens.push(Token::Minus);
                    i += 1;
                }
            }
            '0'..='9' => {
                let (n, used) = read_number(&input[i..])?;
                tokens.push(Token::Number(n));
                i += used;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            other => return Err(Error::Sql(format!("unexpected character '{other}'"))),
        }
    }
    Ok(tokens)
}

fn read_number(s: &str) -> Result<(i64, usize)> {
    let mut len = 0;
    let bytes = s.as_bytes();
    if bytes.first() == Some(&b'-') {
        len = 1;
    }
    while len < bytes.len() && bytes[len].is_ascii_digit() {
        len += 1;
    }
    s[..len]
        .parse::<i64>()
        .map(|n| (n, len))
        .map_err(|e| Error::Sql(format!("bad number: {e}")))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(Error::Sql(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn expect(&mut self, t: Token) -> Result<()> {
        match self.next() {
            Some(got) if got == t => Ok(()),
            other => Err(Error::Sql(format!("expected {t:?}, found {other:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(Error::Sql(format!("expected identifier, found {other:?}"))),
        }
    }

    fn number(&mut self) -> Result<i64> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            other => Err(Error::Sql(format!("expected number, found {other:?}"))),
        }
    }
}

/// Parses one statement into a logical [`Plan`].
pub fn parse(input: &str) -> Result<Plan> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let plan = parse_query(&mut p)?;
    // Allow a trailing semicolon.
    if matches!(p.peek(), Some(Token::Semicolon)) {
        p.next();
    }
    if p.peek().is_some() {
        return Err(Error::Sql(format!("trailing tokens at {:?}", p.peek())));
    }
    Ok(plan)
}

/// A parsed SQL statement: a query, or an `EXPLAIN` wrapping one.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// Execute the plan and return rows.
    Query(Plan),
    /// Compile the plan and return its rendered physical pipeline.
    Explain(Plan),
}

/// Parses one statement, recognizing an optional leading `EXPLAIN`
/// keyword (case-insensitive) before the query.
pub fn parse_statement(input: &str) -> Result<Statement> {
    let trimmed = input.trim_start();
    let explained = trimmed
        .split_whitespace()
        .next()
        .is_some_and(|w| w.eq_ignore_ascii_case("EXPLAIN"));
    if explained {
        let rest = &trimmed[trimmed
            .char_indices()
            .find(|(_, c)| c.is_whitespace())
            .map(|(i, _)| i)
            .unwrap_or(trimmed.len())..];
        Ok(Statement::Explain(parse(rest)?))
    } else {
        Ok(Statement::Query(parse(input)?))
    }
}

#[derive(Debug)]
enum SelectItem {
    Star,
    Agg(AggFunc, String),
    PairAgg(PairAggFunc, String, String),
    ColumnExpr {
        left: String,
        right: String,
        op: BinOp,
    },
}

fn parse_query(p: &mut Parser) -> Result<Plan> {
    p.expect_kw("SELECT")?;
    let item = parse_select_item(p)?;
    p.expect_kw("FROM")?;
    let sources = parse_from(p)?;
    let (pred, inter) = if p.peek_kw("WHERE") {
        p.next();
        let (pr, inter) = parse_where(p)?;
        (Some(pr), inter)
    } else {
        (None, None)
    };
    let window = if p.peek_kw("SW") {
        p.next();
        p.expect(Token::LParen)?;
        let t_min = p.number()?;
        p.expect(Token::Comma)?;
        let dt = p.number()?;
        p.expect(Token::RParen)?;
        if dt <= 0 {
            return Err(Error::Sql("sliding window width must be positive".into()));
        }
        Some((t_min, dt))
    } else if p.peek_kw("GROUP") {
        p.next();
        p.expect_kw("BY")?;
        p.expect_kw("TIME")?;
        p.expect(Token::LParen)?;
        let dt = p.number()?;
        p.expect(Token::RParen)?;
        if dt <= 0 {
            return Err(Error::Sql(
                "GROUP BY TIME(..) interval must be positive".into(),
            ));
        }
        // Epoch-aligned buckets: snap the WHERE time lower bound (if
        // any) down to a multiple of dt so bucket boundaries depend only
        // on the interval, never on the filter.
        let t_min = match pred.as_ref().and_then(|pr| pr.time) {
            Some(tr) if tr.lo != i64::MIN => tr.lo.div_euclid(dt).checked_mul(dt).unwrap_or(0),
            _ => 0,
        };
        Some((t_min, dt))
    } else {
        None
    };

    let apply_pred = |plan: Plan| -> Plan {
        match &pred {
            Some(pr) if !pr.is_trivial() => plan.filter(*pr),
            _ => plan,
        }
    };

    match (item, sources) {
        (SelectItem::Agg(func, _col), FromClause::Single(src)) => {
            let base = apply_pred(src);
            Ok(match window {
                Some((t_min, dt)) => base.window(t_min, dt, func),
                None => base.aggregate(func),
            })
        }
        (SelectItem::Star, FromClause::Single(src)) => {
            if window.is_some() {
                return Err(Error::Sql("SW requires an aggregate select".into()));
            }
            Ok(apply_pred(src))
        }
        (SelectItem::Star, FromClause::Union(l, r)) => Ok(Plan::Union {
            left: Box::new(apply_pred(l)),
            right: Box::new(apply_pred(r)),
        }),
        (SelectItem::Star, FromClause::Cross(l, r)) => Ok(Plan::Join {
            left: Box::new(apply_pred(l)),
            right: Box::new(apply_pred(r)),
            on: inter,
        }),
        (SelectItem::PairAgg(func, a, b), from) => {
            // Sources: FROM a, b — or derive scans from the argument names.
            let (l, r) = match from {
                FromClause::Cross(l, r) => (l, r),
                FromClause::Single(_) | FromClause::Union(_, _) => (Plan::scan(&a), Plan::scan(&b)),
            };
            if window.is_some() {
                return Err(Error::Sql(
                    "SW is not supported for paired aggregates".into(),
                ));
            }
            Ok(Plan::JoinAggregate {
                left: Box::new(apply_pred(l)),
                right: Box::new(apply_pred(r)),
                func,
            })
        }
        (SelectItem::ColumnExpr { left, right, op }, FromClause::Cross(l, r)) => {
            // Bind qualifiers to sources by name.
            let (lname, rname) = (source_name(&l), source_name(&r));
            let (l, r) = if Some(left.as_str()) == lname.as_deref()
                || Some(right.as_str()) == rname.as_deref()
            {
                (l, r)
            } else if Some(right.as_str()) == lname.as_deref()
                || Some(left.as_str()) == rname.as_deref()
            {
                (r, l)
            } else {
                (l, r)
            };
            Ok(Plan::JoinExpr {
                left: Box::new(apply_pred(l)),
                right: Box::new(apply_pred(r)),
                op,
            })
        }
        (item, _) => Err(Error::Sql(format!(
            "unsupported select/from combination: {item:?}"
        ))),
    }
}

fn source_name(plan: &Plan) -> Option<String> {
    match plan {
        Plan::Scan { series } => Some(series.clone()),
        Plan::Filter { input, .. } => source_name(input),
        _ => None,
    }
}

fn parse_select_item(p: &mut Parser) -> Result<SelectItem> {
    match p.peek() {
        Some(Token::Star) => {
            p.next();
            Ok(SelectItem::Star)
        }
        Some(Token::Ident(name)) => {
            let name = name.clone();
            let func = match name.to_ascii_uppercase().as_str() {
                "SUM" => Some(AggFunc::Sum),
                "AVG" => Some(AggFunc::Avg),
                "COUNT" => Some(AggFunc::Count),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                "VARIANCE" | "VAR" => Some(AggFunc::Variance),
                "FIRST" | "FIRST_VALUE" => Some(AggFunc::First),
                "LAST" | "LAST_VALUE" => Some(AggFunc::Last),
                "P50" | "MEDIAN" => Some(AggFunc::P50),
                "P95" => Some(AggFunc::P95),
                "P99" => Some(AggFunc::P99),
                "RATE" => Some(AggFunc::Rate),
                "DELTA" => Some(AggFunc::Delta),
                _ => None,
            };
            let pair = match name.to_ascii_uppercase().as_str() {
                "CORR" => Some(PairAggFunc::Correlation),
                "COV" | "COVAR" => Some(PairAggFunc::Covariance),
                "DOT" => Some(PairAggFunc::Dot),
                _ => None,
            };
            if let Some(func) = pair {
                p.next();
                p.expect(Token::LParen)?;
                let a = p.ident()?;
                p.expect(Token::Comma)?;
                let b = p.ident()?;
                p.expect(Token::RParen)?;
                Ok(SelectItem::PairAgg(func, a, b))
            } else if let Some(func) = func {
                p.next();
                p.expect(Token::LParen)?;
                let col = match p.next() {
                    Some(Token::Ident(c)) => c,
                    Some(Token::Star) => "*".to_string(),
                    other => return Err(Error::Sql(format!("expected column, found {other:?}"))),
                };
                p.expect(Token::RParen)?;
                Ok(SelectItem::Agg(func, col))
            } else {
                // Qualified column expression: ts1.A + ts2.A
                p.next();
                p.expect(Token::Dot)?;
                let _lcol = p.ident()?;
                let op = match p.next() {
                    Some(Token::Plus) => BinOp::Add,
                    Some(Token::Minus) => BinOp::Sub,
                    Some(Token::Star) => BinOp::Mul,
                    other => return Err(Error::Sql(format!("expected operator, found {other:?}"))),
                };
                let right = p.ident()?;
                p.expect(Token::Dot)?;
                let _rcol = p.ident()?;
                Ok(SelectItem::ColumnExpr {
                    left: name,
                    right,
                    op,
                })
            }
        }
        other => Err(Error::Sql(format!("bad select list start: {other:?}"))),
    }
}

#[derive(Debug)]
enum FromClause {
    Single(Plan),
    Union(Plan, Plan),
    Cross(Plan, Plan),
}

fn parse_from(p: &mut Parser) -> Result<FromClause> {
    let first = parse_source(p)?;
    match p.peek() {
        Some(Token::Comma) => {
            p.next();
            let second = parse_source(p)?;
            Ok(FromClause::Cross(first, second))
        }
        Some(Token::Ident(s)) if s.eq_ignore_ascii_case("UNION") => {
            p.next();
            let second = parse_source(p)?;
            // Optional ORDER BY TIME suffix (the merge is always by time).
            if p.peek_kw("ORDER") {
                p.next();
                p.expect_kw("BY")?;
                p.expect_kw("TIME")?;
            }
            Ok(FromClause::Union(first, second))
        }
        _ => Ok(FromClause::Single(first)),
    }
}

fn parse_source(p: &mut Parser) -> Result<Plan> {
    match p.peek() {
        Some(Token::LParen) => {
            p.next();
            let inner = parse_query(p)?;
            p.expect(Token::RParen)?;
            Ok(inner)
        }
        Some(Token::Ident(_)) => {
            let name = p.ident()?;
            // Optional schema annotation `ts(T, A, ...)` — documented but
            // ignored (schema lives in the catalog).
            if matches!(p.peek(), Some(Token::LParen)) {
                p.next();
                loop {
                    match p.next() {
                        Some(Token::RParen) => break,
                        Some(Token::Ident(_)) | Some(Token::Comma) => continue,
                        other => {
                            return Err(Error::Sql(format!("bad schema annotation: {other:?}")))
                        }
                    }
                }
            }
            Ok(Plan::scan(&name))
        }
        other => Err(Error::Sql(format!("bad FROM source: {other:?}"))),
    }
}

/// Parses the WHERE conjunction, separating single-column conjuncts (the
/// returned [`Predicate`], pushed to the scans per Algorithm 2 Eq. 1)
/// from at most one inter-column comparison `a.X <op> b.Y` (Eq. 3,
/// applied to the joined vectors).
fn parse_where(p: &mut Parser) -> Result<(Predicate, Option<CmpOp>)> {
    let mut pred = Predicate::default();
    let mut inter = None;
    loop {
        match parse_comparison(p)? {
            Conjunct::Single(c) => pred = pred.and(&c),
            Conjunct::Inter(op) => {
                if inter.replace(op).is_some() {
                    return Err(Error::Sql("at most one inter-column predicate".into()));
                }
            }
        }
        if p.peek_kw("AND") {
            p.next();
        } else {
            break;
        }
    }
    Ok((pred, inter))
}

enum Conjunct {
    Single(Predicate),
    Inter(CmpOp),
}

fn parse_comparison(p: &mut Parser) -> Result<Conjunct> {
    let col = p.ident()?;
    // Qualified left side → inter-column comparison.
    if matches!(p.peek(), Some(Token::Dot)) {
        p.next();
        let _lcol = p.ident()?;
        let cmp = match p.next() {
            Some(Token::Cmp(c)) => c,
            other => return Err(Error::Sql(format!("expected comparison, found {other:?}"))),
        };
        let _rseries = p.ident()?;
        p.expect(Token::Dot)?;
        let _rcol = p.ident()?;
        let op = match cmp {
            Cmp::Lt => CmpOp::Lt,
            Cmp::Le => CmpOp::Le,
            Cmp::Gt => CmpOp::Gt,
            Cmp::Ge => CmpOp::Ge,
            Cmp::Eq => CmpOp::Eq,
        };
        return Ok(Conjunct::Inter(op));
    }
    let cmp = match p.next() {
        Some(Token::Cmp(c)) => c,
        other => return Err(Error::Sql(format!("expected comparison, found {other:?}"))),
    };
    let n = p.number()?;
    // Normalize to inclusive integer bounds.
    let (lo, hi) = match cmp {
        Cmp::Lt => (i64::MIN, n.saturating_sub(1)),
        Cmp::Le => (i64::MIN, n),
        Cmp::Gt => (n.saturating_add(1), i64::MAX),
        Cmp::Ge => (n, i64::MAX),
        Cmp::Eq => (n, n),
    };
    if col.eq_ignore_ascii_case("time") || col.eq_ignore_ascii_case("t") {
        Ok(Conjunct::Single(Predicate::time(lo, hi)))
    } else {
        Ok(Conjunct::Single(Predicate {
            strict: (cmp == Cmp::Gt, cmp == Cmp::Lt),
            ..Predicate::value(lo, hi)
        }))
    }
}

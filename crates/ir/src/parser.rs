//! Textual IR parser: the inverse of [`crate::printer`].
//!
//! The parser understands the generic operation form plus the custom forms
//! for `builtin.module` and `func.func`, and defers dialect type syntax
//! (`!sycl.id<2>`) to parser hooks registered in the [`Context`]
//! (see [`Context::register_type_parser`]).

use crate::affine::{AffineExpr, AffineMap};
use crate::attrs::{parse_f64, AttrKey, Attribute};
use crate::context::Context;
use crate::module::{BlockId, Module, ValueId};
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

/// A parse failure with 1-based source coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub line: usize,
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a module from its textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, unknown op names, or unknown
/// value references. The result is *not* verified; run
/// [`crate::verify`] afterwards for structural checks.
///
/// ```
/// use sycl_mlir_ir::{parse_module, print_module, Context};
/// let ctx = Context::new();
/// let m = parse_module(&ctx, "builtin.module {\n}\n").unwrap();
/// assert!(print_module(&m).starts_with("builtin.module {"));
/// ```
pub fn parse_module(ctx: &Context, src: &str) -> Result<Module, ParseError> {
    let mut p = Parser {
        ctx: ctx.clone(),
        src: src.as_bytes(),
        pos: 0,
        values: HashMap::new(),
    };
    let mut m = Module::new(ctx);
    p.skip_ws();
    p.expect_keyword("builtin.module")?;
    p.skip_ws();
    if p.peek() == Some(b'@') {
        let name = p.read_symbol()?;
        m.set_attr(m.top(), "sym_name", Attribute::Str(name));
    }
    p.skip_ws();
    if p.try_keyword("attributes") {
        let attrs = p.parse_attr_dict()?;
        for (k, v) in attrs {
            m.set_attr_by_id(m.top(), k, v);
        }
    }
    p.expect(b'{')?;
    let top_block = m.top_block();
    p.parse_ops_until_brace(&mut m, top_block)?;
    p.skip_ws();
    if p.pos < p.src.len() {
        return Err(p.err("trailing input after module"));
    }
    Ok(m)
}

/// Parse a standalone type from text (e.g. `"memref<?xf32>"`); useful for
/// dialect type parsers that embed nested types in their `<...>` body.
///
/// # Errors
///
/// Returns a [`ParseError`] if the text is not a complete type.
pub fn parse_type(ctx: &Context, src: &str) -> Result<Type, ParseError> {
    let mut p = Parser {
        ctx: ctx.clone(),
        src: src.as_bytes(),
        pos: 0,
        values: HashMap::new(),
    };
    let ty = p.parse_type()?;
    p.skip_ws();
    if p.pos < p.src.len() {
        return Err(p.err("trailing input after type"));
    }
    Ok(ty)
}

struct Parser<'a> {
    ctx: Context,
    src: &'a [u8],
    pos: usize,
    values: HashMap<String, ValueId>,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.src[..self.pos.min(self.src.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        loop {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
            if self.src[self.pos..].starts_with(b"//") {
                while !matches!(self.peek(), None | Some(b'\n')) {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found `{}`",
                c as char,
                self.peek().map(|b| b as char).unwrap_or('␄')
            )))
        }
    }

    fn try_char(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn is_ident_char(b: u8) -> bool {
        b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'$'
    }

    fn read_ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.peek() {
            if Self::is_ident_char(b) {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let bytes = kw.as_bytes();
        if self.src[self.pos..].starts_with(bytes) {
            let after = self.pos + bytes.len();
            if self.src.get(after).copied().map(Self::is_ident_char) != Some(true) {
                self.pos = after;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.try_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    fn read_value_name(&mut self) -> Result<String, ParseError> {
        self.expect(b'%')?;
        let mut name = String::from("%");
        name.push_str(&self.read_ident()?);
        Ok(name)
    }

    fn read_symbol(&mut self) -> Result<String, ParseError> {
        self.expect(b'@')?;
        self.read_ident()
    }

    fn lookup_value(&mut self, name: &str) -> Result<ValueId, ParseError> {
        self.values
            .get(name)
            .copied()
            .ok_or_else(|| self.err(format!("unknown value `{name}`")))
    }

    fn define_value(&mut self, name: String, v: ValueId) -> Result<(), ParseError> {
        if self.values.insert(name.clone(), v).is_some() {
            return Err(self.err(format!("redefinition of value `{name}`")));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Numbers & strings
    // ------------------------------------------------------------------

    fn read_number(&mut self) -> Result<Attribute, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.src[self.pos..].starts_with(b"0x") {
            // A float's bit pattern (NaN, ±inf).
            self.pos += 2;
            while self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                self.pos += 1;
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            return parse_f64(&text)
                .map(Attribute::Float)
                .map_err(|e| self.err(e));
        }
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().map(|b| b.is_ascii_digit()) == Some(true) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().map(|b| b.is_ascii_digit()) == Some(true) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'-' | b'+')) {
                self.pos += 1;
            }
            while self.peek().map(|b| b.is_ascii_digit()) == Some(true) {
                self.pos += 1;
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        if text.is_empty() || text == "-" {
            return Err(self.err("expected number"));
        }
        if is_float {
            parse_f64(&text)
                .map(Attribute::Float)
                .map_err(|e| self.err(e))
        } else {
            text.parse::<i64>()
                .map(Attribute::Int)
                .map_err(|e| self.err(format!("bad integer `{text}`: {e}")))
        }
    }

    fn read_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    other => {
                        return Err(
                            self.err(format!("bad escape `\\{:?}`", other.map(|b| b as char)))
                        )
                    }
                },
                Some(b) => out.push(b as char),
            }
        }
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'(') => {
                let inputs = self.parse_type_list()?;
                self.expect(b'-')?;
                self.expect(b'>')?;
                let results = self.parse_type_list()?;
                Ok(self.ctx.function_type(&inputs, &results))
            }
            Some(b'!') => {
                self.pos += 1;
                let full = self.read_ident()?;
                let (dialect, name) = full
                    .split_once('.')
                    .ok_or_else(|| self.err(format!("dialect type `!{full}` missing `.`")))?;
                let body = if self.peek() == Some(b'<') {
                    self.read_balanced_angles()?
                } else {
                    String::new()
                };
                let parser = self.ctx.type_parser(dialect).ok_or_else(|| {
                    self.err(format!("no type parser registered for dialect `{dialect}`"))
                })?;
                parser(&self.ctx, name, &body)
                    .ok_or_else(|| self.err(format!("cannot parse type `!{full}<{body}>`")))
            }
            _ => {
                let ident = self.read_ident()?;
                match ident.as_str() {
                    "index" => Ok(self.ctx.index_type()),
                    "f32" => Ok(self.ctx.f32_type()),
                    "f64" => Ok(self.ctx.f64_type()),
                    "none" => Ok(self.ctx.none_type()),
                    "ptr" => Ok(self.ctx.ptr_type()),
                    "memref" => {
                        self.expect(b'<')?;
                        let mut shape = Vec::new();
                        loop {
                            self.skip_ws();
                            if self.peek() == Some(b'?') {
                                self.pos += 1;
                                self.expect(b'x')?;
                                shape.push(-1);
                            } else if self.peek().map(|b| b.is_ascii_digit()) == Some(true) {
                                let n = match self.read_number()? {
                                    Attribute::Int(n) => n,
                                    _ => return Err(self.err("bad memref dimension")),
                                };
                                self.expect(b'x')?;
                                shape.push(n);
                            } else {
                                break;
                            }
                        }
                        let elem = self.parse_type()?;
                        self.expect(b'>')?;
                        Ok(self.ctx.memref_type(elem, &shape))
                    }
                    _ if ident.starts_with('i')
                        && ident[1..].chars().all(|c| c.is_ascii_digit())
                        && ident.len() > 1 =>
                    {
                        let width: u32 = ident[1..]
                            .parse()
                            .map_err(|_| self.err(format!("bad integer type `{ident}`")))?;
                        Ok(self.ctx.int_type(width))
                    }
                    other => Err(self.err(format!("unknown type `{other}`"))),
                }
            }
        }
    }

    fn parse_type_list(&mut self) -> Result<Vec<Type>, ParseError> {
        self.expect(b'(')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() != Some(b')') {
            loop {
                out.push(self.parse_type()?);
                if !self.try_char(b',') {
                    break;
                }
            }
        }
        self.expect(b')')?;
        Ok(out)
    }

    /// After peeking `<`, capture the raw balanced `<...>` body.
    fn read_balanced_angles(&mut self) -> Result<String, ParseError> {
        self.expect(b'<')?;
        let start = self.pos;
        let mut depth = 1usize;
        let mut prev = 0u8;
        while let Some(b) = self.bump() {
            match b {
                b'<' => depth += 1,
                // `->` inside (e.g. affine maps) does not close the bracket.
                b'>' if prev != b'-' => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(
                            String::from_utf8_lossy(&self.src[start..self.pos - 1]).into_owned()
                        );
                    }
                }
                _ => {}
            }
            prev = b;
        }
        Err(self.err("unterminated `<...>`"))
    }

    // ------------------------------------------------------------------
    // Attributes
    // ------------------------------------------------------------------

    fn parse_attr_dict(&mut self) -> Result<Vec<(AttrKey, Attribute)>, ParseError> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                let key = self.read_ident()?;
                let key = self.ctx.attr_key(&key);
                self.expect(b'=')?;
                let value = self.parse_attr_value()?;
                out.push((key, value));
                if !self.try_char(b',') {
                    break;
                }
            }
        }
        self.expect(b'}')?;
        Ok(out)
    }

    fn parse_attr_value(&mut self) -> Result<Attribute, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Attribute::Str(self.read_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() != Some(b']') {
                    loop {
                        items.push(self.parse_attr_value()?);
                        if !self.try_char(b',') {
                            break;
                        }
                    }
                }
                self.expect(b']')?;
                Ok(Attribute::Array(items))
            }
            Some(b'@') => {
                let mut path = vec![self.read_symbol()?];
                while self.src[self.pos..].starts_with(b"::") {
                    self.pos += 2;
                    path.push(self.read_symbol()?);
                }
                Ok(Attribute::SymbolRef(path))
            }
            Some(b'-') | Some(b'0'..=b'9') => self.read_number(),
            _ => {
                if self.try_keyword("unit") {
                    Ok(Attribute::Unit)
                } else if self.try_keyword("true") {
                    Ok(Attribute::Bool(true))
                } else if self.try_keyword("false") {
                    Ok(Attribute::Bool(false))
                } else if self.try_keyword("densei64") {
                    let body = self.read_balanced_angles()?;
                    let vals = parse_num_list::<i64>(&body).map_err(|e| self.err(e))?;
                    Ok(Attribute::DenseI64(vals))
                } else if self.try_keyword("densef64") {
                    let body = self.read_balanced_angles()?;
                    let vals = (body.split(',').map(str::trim))
                        .filter(|s| !s.is_empty())
                        .map(parse_f64)
                        .collect::<Result<_, _>>()
                        .map_err(|e| self.err(e))?;
                    Ok(Attribute::DenseF64(vals))
                } else if self.try_keyword("affine_map") {
                    let body = self.read_balanced_angles()?;
                    parse_affine_map(&body)
                        .map(Attribute::AffineMap)
                        .map_err(|e| self.err(e))
                } else {
                    Ok(Attribute::Type(self.parse_type()?))
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    fn parse_ops_until_brace(&mut self, m: &mut Module, block: BlockId) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(());
            }
            if self.peek().is_none() {
                return Err(self.err("unexpected end of input, expected `}`"));
            }
            self.parse_op(m, block)?;
        }
    }

    fn parse_op(&mut self, m: &mut Module, block: BlockId) -> Result<(), ParseError> {
        self.skip_ws();
        // Optional result list.
        let mut result_names = Vec::new();
        if self.peek() == Some(b'%') {
            loop {
                result_names.push(self.read_value_name()?);
                if !self.try_char(b',') {
                    break;
                }
            }
            self.expect(b'=')?;
        }
        let name = self.read_ident()?;
        match name.as_str() {
            "func.func" => {
                if !result_names.is_empty() {
                    return Err(self.err("func.func produces no results"));
                }
                self.parse_func(m, block)
            }
            "builtin.module" => {
                if !result_names.is_empty() {
                    return Err(self.err("builtin.module produces no results"));
                }
                self.parse_nested_module(m, block)
            }
            _ => self.parse_generic_op(m, block, &name, result_names),
        }
    }

    fn parse_func(&mut self, m: &mut Module, block: BlockId) -> Result<(), ParseError> {
        let sym = self.read_symbol()?;
        self.expect(b'(')?;
        let mut arg_names = Vec::new();
        let mut arg_types = Vec::new();
        self.skip_ws();
        if self.peek() != Some(b')') {
            loop {
                arg_names.push(self.read_value_name()?);
                self.expect(b':')?;
                arg_types.push(self.parse_type()?);
                if !self.try_char(b',') {
                    break;
                }
            }
        }
        self.expect(b')')?;
        self.expect(b'-')?;
        self.expect(b'>')?;
        let results = self.parse_type_list()?;
        let mut attrs = vec![
            (self.ctx.attr_key("sym_name"), Attribute::Str(sym)),
            (
                self.ctx.attr_key("function_type"),
                Attribute::Type(self.ctx.function_type(&arg_types, &results)),
            ),
        ];
        if self.try_keyword("attributes") {
            attrs.extend(self.parse_attr_dict()?);
        }
        let name = self
            .ctx
            .lookup_op("func.func")
            .ok_or_else(|| self.err("`func.func` is not registered; register the func dialect"))?;
        let op = m.create_op_interned(name, &[], &[], attrs);
        let region = m.add_region(op);
        let body = m.add_block(region, &arg_types);
        for (i, n) in arg_names.into_iter().enumerate() {
            let v = m.block_arg(body, i);
            self.define_value(n, v)?;
        }
        m.append_op(block, op);
        self.expect(b'{')?;
        self.parse_ops_until_brace(m, body)
    }

    fn parse_nested_module(&mut self, m: &mut Module, block: BlockId) -> Result<(), ParseError> {
        let mut attrs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'@') {
            attrs.push((
                self.ctx.attr_key("sym_name"),
                Attribute::Str(self.read_symbol()?),
            ));
        }
        if self.try_keyword("attributes") {
            attrs.extend(self.parse_attr_dict()?);
        }
        let name = self.ctx.op("builtin.module");
        let op = m.create_op_interned(name, &[], &[], attrs);
        let region = m.add_region(op);
        let body = m.add_block(region, &[]);
        m.append_op(block, op);
        self.expect(b'{')?;
        self.parse_ops_until_brace(m, body)
    }

    fn parse_generic_op(
        &mut self,
        m: &mut Module,
        block: BlockId,
        name: &str,
        result_names: Vec<String>,
    ) -> Result<(), ParseError> {
        let op_name = self.ctx.lookup_op(name).ok_or_else(|| {
            self.err(format!(
                "unknown operation `{name}` (dialect not registered?)"
            ))
        })?;
        self.expect(b'(')?;
        let mut operands = Vec::new();
        self.skip_ws();
        if self.peek() != Some(b')') {
            loop {
                let n = self.read_value_name()?;
                operands.push(self.lookup_value(&n)?);
                if !self.try_char(b',') {
                    break;
                }
            }
        }
        self.expect(b')')?;
        self.skip_ws();
        let attrs = if self.peek() == Some(b'{') {
            self.parse_attr_dict()?
        } else {
            Vec::new()
        };
        self.expect(b':')?;
        let operand_types = self.parse_type_list()?;
        self.expect(b'-')?;
        self.expect(b'>')?;
        let result_types = self.parse_type_list()?;
        if operand_types.len() != operands.len() {
            return Err(self.err(format!(
                "`{name}`: {} operands but {} operand types",
                operands.len(),
                operand_types.len()
            )));
        }
        for (i, (&v, t)) in operands.iter().zip(&operand_types).enumerate() {
            if m.value_type(v) != t {
                return Err(self.err(format!(
                    "`{name}`: operand #{i} has type {} but {} was written",
                    m.value_type(v),
                    t
                )));
            }
        }
        if result_types.len() != result_names.len() {
            return Err(self.err(format!(
                "`{name}`: {} results named but {} result types",
                result_names.len(),
                result_types.len()
            )));
        }
        let op = m.create_op_interned(op_name, &operands, &result_types, attrs);
        for (i, n) in result_names.into_iter().enumerate() {
            let v = m.op_result(op, i);
            self.define_value(n, v)?;
        }
        m.append_op(block, op);
        // Regions.
        loop {
            self.skip_ws();
            if self.peek() != Some(b'{') {
                break;
            }
            self.pos += 1;
            let region = m.add_region(op);
            self.skip_ws();
            let body = if self.peek() == Some(b'^') {
                self.pos += 1;
                self.expect(b'(')?;
                let mut arg_names = Vec::new();
                let mut arg_types = Vec::new();
                self.skip_ws();
                if self.peek() != Some(b')') {
                    loop {
                        arg_names.push(self.read_value_name()?);
                        self.expect(b':')?;
                        arg_types.push(self.parse_type()?);
                        if !self.try_char(b',') {
                            break;
                        }
                    }
                }
                self.expect(b')')?;
                self.expect(b':')?;
                let b = m.add_block(region, &arg_types);
                for (i, n) in arg_names.into_iter().enumerate() {
                    let v = m.block_arg(b, i);
                    self.define_value(n, v)?;
                }
                b
            } else {
                m.add_block(region, &[])
            };
            self.parse_ops_until_brace(m, body)?;
        }
        Ok(())
    }
}

fn parse_num_list<T: std::str::FromStr>(body: &str) -> Result<Vec<T>, String>
where
    T::Err: fmt::Display,
{
    body.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<T>().map_err(|e| format!("bad number `{s}`: {e}")))
        .collect()
}

/// Parse the body of an `affine_map<...>` attribute as printed by
/// [`AffineMap`]'s `Display` impl.
fn parse_affine_map(body: &str) -> Result<AffineMap, String> {
    let mut p = AffineParser {
        src: body.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'(')?;
    let mut num_dims = 0;
    p.skip_ws();
    if p.peek() != Some(b')') {
        loop {
            let id = p.read_word()?;
            if !id.starts_with('d') {
                return Err(format!("expected dim name, found `{id}`"));
            }
            num_dims += 1;
            if !p.try_char(b',') {
                break;
            }
        }
    }
    p.expect(b')')?;
    p.expect(b'-')?;
    p.expect(b'>')?;
    p.expect(b'(')?;
    let mut exprs = Vec::new();
    p.skip_ws();
    if p.peek() != Some(b')') {
        loop {
            exprs.push(p.parse_expr()?);
            if !p.try_char(b',') {
                break;
            }
        }
    }
    p.expect(b')')?;
    Ok(AffineMap::new(num_dims, exprs))
}

struct AffineParser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> AffineParser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` in affine map", c as char))
        }
    }

    fn try_char(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn read_word(&mut self) -> Result<String, String> {
        self.skip_ws();
        let start = self.pos;
        while self.peek().map(|b| b.is_ascii_alphanumeric() || b == b'_') == Some(true) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err("expected word in affine map".into());
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn parse_expr(&mut self) -> Result<AffineExpr, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let lhs = self.parse_expr()?;
                self.skip_ws();
                let expr = if self.try_char(b'+') {
                    AffineExpr::Add(Box::new(lhs), Box::new(self.parse_expr()?))
                } else if self.try_char(b'*') {
                    AffineExpr::Mul(Box::new(lhs), Box::new(self.parse_expr()?))
                } else {
                    let word = self.read_word()?;
                    match word.as_str() {
                        "mod" => AffineExpr::Mod(Box::new(lhs), Box::new(self.parse_expr()?)),
                        "floordiv" => {
                            AffineExpr::FloorDiv(Box::new(lhs), Box::new(self.parse_expr()?))
                        }
                        other => return Err(format!("unknown affine operator `{other}`")),
                    }
                };
                self.expect(b')')?;
                Ok(expr)
            }
            Some(b'-') | Some(b'0'..=b'9') => {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                while self.peek().map(|b| b.is_ascii_digit()) == Some(true) {
                    self.pos += 1;
                }
                String::from_utf8_lossy(&self.src[start..self.pos])
                    .parse::<i64>()
                    .map(AffineExpr::Const)
                    .map_err(|e| format!("bad affine constant: {e}"))
            }
            _ => {
                let word = self.read_word()?;
                if let Some(rest) = word.strip_prefix('d') {
                    if let Ok(i) = rest.parse::<usize>() {
                        return Ok(AffineExpr::Dim(i));
                    }
                }
                if let Some(rest) = word.strip_prefix('s') {
                    if let Ok(i) = rest.parse::<usize>() {
                        return Ok(AffineExpr::Sym(i));
                    }
                }
                Err(format!("unknown affine atom `{word}`"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{traits, OpInfo};
    use crate::printer::print_module;

    fn ctx() -> Context {
        let c = Context::new();
        c.register_op(
            OpInfo::new("func.func").with_traits(traits::ISOLATED_FROM_ABOVE | traits::SYMBOL),
        );
        c.register_op(OpInfo::new("func.return").with_traits(traits::TERMINATOR));
        c.register_op(OpInfo::new("t.make").with_traits(traits::PURE));
        c.register_op(OpInfo::new("t.use"));
        c.register_op(OpInfo::new("t.wrap"));
        c.register_op(OpInfo::new("t.yield").with_traits(traits::TERMINATOR));
        c
    }

    #[test]
    fn roundtrip_simple() {
        let c = ctx();
        let src = "builtin.module {\n  func.func @f(%0: i32) -> (i32) {\n    %1 = t.make() {k = 1} : () -> (i32)\n    func.return(%1) : (i32) -> ()\n  }\n}\n";
        let m = parse_module(&c, src).unwrap();
        assert_eq!(print_module(&m), src);
    }

    #[test]
    fn roundtrip_regions_and_block_args() {
        let c = ctx();
        let src = "builtin.module {\n  func.func @f() -> () {\n    %0 = t.make() : () -> (index)\n    t.wrap(%0) : (index) -> () {\n      ^(%1: index):\n      t.yield() : () -> ()\n    }\n    func.return() : () -> ()\n  }\n}\n";
        let m = parse_module(&c, src).unwrap();
        let printed = print_module(&m);
        let m2 = parse_module(&c, &printed).unwrap();
        assert_eq!(print_module(&m2), printed);
        assert!(printed.contains("^(%1: index):"), "{printed}");
    }

    #[test]
    fn nested_module_roundtrip() {
        let c = ctx();
        let src = "builtin.module {\n  builtin.module @device {\n    func.func @k() -> () {\n      func.return() : () -> ()\n    }\n  }\n}\n";
        let m = parse_module(&c, src).unwrap();
        assert_eq!(print_module(&m), src);
        let dev = m.lookup_symbol(m.top(), "device").unwrap();
        assert!(m.lookup_symbol(dev, "k").is_some());
        assert!(m
            .lookup_symbol_path(m.top(), &["device".into(), "k".into()])
            .is_some());
    }

    #[test]
    fn unknown_value_is_an_error() {
        let c = ctx();
        let src = "builtin.module {\n  t.use(%9) : (i32) -> ()\n}\n";
        let err = parse_module(&c, src).unwrap_err();
        assert!(err.message.contains("unknown value"), "{err}");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unknown_op_is_an_error() {
        let c = ctx();
        let err = parse_module(&c, "builtin.module {\n  nope.nope() : () -> ()\n}\n").unwrap_err();
        assert!(err.message.contains("unknown operation"), "{err}");
    }

    #[test]
    fn operand_type_mismatch_is_an_error() {
        let c = ctx();
        let src = "builtin.module {\n  %0 = t.make() : () -> (i32)\n  t.use(%0) : (i64) -> ()\n}\n";
        let err = parse_module(&c, src).unwrap_err();
        assert!(err.message.contains("operand #0 has type i32"), "{err}");
    }

    #[test]
    fn attribute_kinds_roundtrip() {
        let c = ctx();
        let src = "builtin.module {\n  %0 = t.make() {a = -4, b = 2.5, c = \"hi\", d = true, e = unit, f = [1, 2], g = @x::@y, h = densei64<1, 2>, i = densef64<1.5>, j = memref<?xf32>, k = affine_map<(d0, d1) -> ((d0 + 1), (d1 * 2))>} : () -> (i32)\n}\n";
        let m = parse_module(&c, src).unwrap();
        let printed = print_module(&m);
        let m2 = parse_module(&c, &printed).unwrap();
        assert_eq!(print_module(&m2), printed);
        let op = m.block_ops(m.top_block())[0];
        assert_eq!(m.attr(op, "a").and_then(|a| a.as_int()), Some(-4));
        assert_eq!(m.attr(op, "b").and_then(|a| a.as_float()), Some(2.5));
        assert_eq!(
            m.attr(op, "g")
                .and_then(|a| a.as_symbol_ref())
                .map(|p| p.len()),
            Some(2)
        );
        let map = m.attr(op, "k").and_then(|a| a.as_affine_map()).unwrap();
        assert_eq!(map.num_dims, 2);
        assert_eq!(map.eval(&[3, 5]), vec![4, 10]);
    }
}

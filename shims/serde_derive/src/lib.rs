//! The `Serialize` derive for the offline `serde` shim.
//!
//! `#[derive(Serialize)]` is a *real* derive: it walks the raw
//! `proc_macro::TokenStream` (no `syn`/`quote` in the offline image) and
//! emits an `impl ::serde::Serialize` that writes `serde_json`-shaped
//! output through the shim's concrete `Serializer`:
//!
//! * named-field structs → JSON objects (fields in declaration order,
//!   `#[serde(skip)]`-ed fields omitted);
//! * newtype structs → the inner value; other tuple structs → arrays;
//!   unit structs → `null`;
//! * enums → externally tagged: unit variants as `"Variant"`, newtype
//!   variants as `{"Variant": value}`, tuple variants as
//!   `{"Variant": [..]}`, struct variants as `{"Variant": {..}}`.
//!
//! Generic types are not supported (nothing in the workspace derives
//! `Serialize` on a generic type); hitting one produces a
//! `compile_error!` rather than silently wrong output.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive a JSON `Serialize` impl (see crate docs for the mapping).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input).unwrap_or_else(|msg| {
        format!("compile_error!({msg:?});")
            .parse()
            .expect("compile_error! snippet parses")
    })
}

fn expand(input: TokenStream) -> Result<TokenStream, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes (`#[...]`, including expanded doc comments)
    // and the visibility qualifier.
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 1; // the `[...]` group
                if matches!(tokens.get(i), Some(TokenTree::Group(_))) {
                    i += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1; // optional `(crate)` / `(super)` restriction
                if matches!(
                    tokens.get(i),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    i += 1;
                }
            }
            _ => break,
        }
    }

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim: derive(Serialize) does not support generic type `{name}`"
        ));
    }

    let body = match kind.as_str() {
        "struct" => expand_struct(&name, &tokens[i..])?,
        "enum" => expand_enum(&name, &tokens[i..])?,
        other => return Err(format!("derive(Serialize) on unsupported item `{other}`")),
    };

    let impl_src = format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, __s: &mut ::serde::Serializer) {{\n{body}\n}}\n}}"
    );
    impl_src
        .parse()
        .map_err(|e| format!("serde shim: generated impl failed to parse: {e:?}"))
}

/// One parsed field of a braced struct/variant body.
struct Field {
    name: String,
    skip: bool,
}

/// Parse `name: Type, ...` (with per-field attributes and visibility)
/// out of a braced group's tokens.
fn parse_named_fields(group: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Field attributes; note `#[serde(skip)]`.
        let mut skip = false;
        loop {
            match tokens.get(i) {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    i += 1;
                    if let Some(TokenTree::Group(g)) = tokens.get(i) {
                        skip |= attr_is_serde_skip(g.stream());
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        match tokens.get(i) {
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if matches!(
                    tokens.get(i),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    i += 1;
                }
            }
            _ => {}
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break, // trailing comma
            other => return Err(format!("expected field name, found {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after `{name}`, found {other:?}")),
        }
        // Consume the type: everything until a `,` at angle-bracket
        // depth 0. Parenthesized/bracketed types are single groups, so
        // only `<`/`>` need balancing (each `>` of a `>>` is its own
        // punct token).
        let mut depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        i += 1; // the `,` (or one past the end)
        fields.push(Field { name, skip });
    }
    Ok(fields)
}

/// Does `#[<attr tokens>]` spell `serde(... skip ...)`?
fn attr_is_serde_skip(attr: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    match (tokens.first(), tokens.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) if id.to_string() == "serde" => {
            args.stream()
                .into_iter()
                .any(|t| matches!(t, TokenTree::Ident(ref id) if id.to_string() == "skip"))
        }
        _ => false,
    }
}

/// Count the comma-separated fields of a tuple struct/variant
/// parenthesized body (commas inside nested groups are already hidden
/// by tokenization; only `<`/`>` depth needs tracking).
fn count_tuple_fields(group: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut fields = 1;
    let mut saw_trailing_comma = false;
    for tok in &tokens {
        saw_trailing_comma = false;
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    fields += 1;
                    saw_trailing_comma = true;
                }
                _ => {}
            }
        }
    }
    if saw_trailing_comma {
        fields -= 1;
    }
    fields
}

fn expand_struct(name: &str, rest: &[TokenTree]) -> Result<String, String> {
    match rest.first() {
        // Named fields: `struct S { .. }` → JSON object.
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let fields = parse_named_fields(g.stream())?;
            let mut body = String::from("let mut __m = __s.begin_map();\n");
            for f in fields.iter().filter(|f| !f.skip) {
                body.push_str(&format!("__m.entry({:?}, &self.{});\n", f.name, f.name));
            }
            body.push_str("__m.end();");
            Ok(body)
        }
        // Tuple struct: newtype → inner value; wider → array.
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let n = count_tuple_fields(g.stream());
            match n {
                0 => Ok("__s.null();".to_string()),
                1 => Ok("::serde::Serialize::serialize(&self.0, __s);".to_string()),
                n => {
                    let mut body = String::from("let mut __q = __s.begin_seq();\n");
                    for i in 0..n {
                        body.push_str(&format!("__q.element(&self.{i});\n"));
                    }
                    body.push_str("__q.end();");
                    Ok(body)
                }
            }
        }
        // Unit struct.
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok("__s.null();".to_string()),
        other => Err(format!("struct `{name}`: unexpected body {other:?}")),
    }
}

fn expand_enum(name: &str, rest: &[TokenTree]) -> Result<String, String> {
    let body_group = match rest.first() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        other => {
            return Err(format!(
                "enum `{name}`: expected braced body, found {other:?}"
            ))
        }
    };
    let tokens: Vec<TokenTree> = body_group.into_iter().collect();
    let mut arms = String::new();
    let mut i = 0;
    while i < tokens.len() {
        // Variant attributes (none of ours matter here).
        while matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 1;
            if matches!(tokens.get(i), Some(TokenTree::Group(_))) {
                i += 1;
            }
        }
        let variant = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("enum `{name}`: expected variant, found {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            // Struct variant: `{ a: T, b: U }` → {"Variant": {"a":..}}
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                let pat: Vec<String> = fields.iter().map(|f| format!("ref {}", f.name)).collect();
                let mut arm = format!(
                    "{name}::{variant} {{ {} }} => {{\n\
                     let mut __m = __s.begin_map();\n\
                     {{\nlet __vs = __m.key({variant:?});\nlet mut __im = __vs.begin_map();\n",
                    pat.join(", ")
                );
                for f in fields.iter().filter(|f| !f.skip) {
                    arm.push_str(&format!("__im.entry({:?}, {});\n", f.name, f.name));
                }
                arm.push_str("__im.end();\n}\n__m.end();\n}\n");
                arms.push_str(&arm);
                i += 1;
            }
            // Tuple variant: newtype → {"Variant": v}; wider → array.
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                let binds: Vec<String> = (0..n).map(|k| format!("ref __f{k}")).collect();
                let mut arm = format!("{name}::{variant}({}) => {{\n", binds.join(", "));
                match n {
                    0 => arm.push_str(&format!("__s.str_({variant:?});\n")),
                    1 => arm.push_str(&format!(
                        "let mut __m = __s.begin_map();\n\
                         __m.entry({variant:?}, __f0);\n__m.end();\n"
                    )),
                    n => {
                        arm.push_str(&format!(
                            "let mut __m = __s.begin_map();\n\
                             {{\nlet __vs = __m.key({variant:?});\n\
                             let mut __q = __vs.begin_seq();\n"
                        ));
                        for k in 0..n {
                            arm.push_str(&format!("__q.element(__f{k});\n"));
                        }
                        arm.push_str("__q.end();\n}\n__m.end();\n");
                    }
                }
                arm.push_str("}\n");
                arms.push_str(&arm);
                i += 1;
            }
            // Unit variant (possibly with a discriminant, not used here).
            _ => {
                arms.push_str(&format!("{name}::{variant} => __s.str_({variant:?}),\n"));
            }
        }
        // Skip to the comma separating variants.
        while let Some(tok) = tokens.get(i) {
            if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
            i += 1;
        }
        i += 1;
    }
    Ok(format!("match self {{\n{arms}}}"))
}

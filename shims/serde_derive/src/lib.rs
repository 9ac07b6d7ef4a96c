//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! workspace's value-model `serde` shim without `syn`/`quote`: the item is
//! parsed with a small hand-rolled token walker and the impls are emitted
//! as source strings.
//!
//! Supported shapes (everything this workspace derives):
//!
//! * named-field structs, newtype/tuple structs, unit enums;
//! * externally tagged enums (unit variants as strings, payload variants
//!   as single-key maps);
//! * internally tagged enums: `#[serde(tag = "...", rename_all =
//!   "snake_case")]`;
//! * field attrs `#[serde(default)]` and `#[serde(default = "path")]`;
//! * container attr `#[serde(deny_unknown_fields)]`.
//!
//! Anything else (generics, lifetimes, unions) produces a compile error
//! naming the unsupported construct.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// --- parsed representation ------------------------------------------------

#[derive(Debug, Default)]
struct ContainerAttrs {
    tag: Option<String>,
    rename_all_snake: bool,
    deny_unknown: bool,
}

#[derive(Debug, Clone)]
enum DefaultKind {
    Std,
    Path(String),
}

#[derive(Debug, Clone)]
struct Field {
    name: String,
    default: Option<DefaultKind>,
    is_option: bool,
    /// Other keys the field is read from (`#[serde(alias = "...")]`),
    /// tried in order after its own name.
    aliases: Vec<String>,
}

#[derive(Debug)]
enum VariantFields {
    Unit,
    Named(Vec<Field>),
    Tuple(usize),
}

#[derive(Debug)]
struct Variant {
    name: String,
    fields: VariantFields,
}

#[derive(Debug)]
enum ItemKind {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Item {
    name: String,
    attrs: ContainerAttrs,
    kind: ItemKind,
}

// --- token walker ---------------------------------------------------------

struct Walker {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Walker {
    fn new(ts: TokenStream) -> Self {
        Walker {
            tokens: ts.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, ch: char) -> bool {
        if let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() == ch {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if let Some(TokenTree::Ident(i)) = self.peek() {
            if i.to_string() == name {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    /// Collect `#[serde(...)]`-style attributes at the current position,
    /// returning the flattened serde attr entries and skipping the rest
    /// (doc comments etc.).
    fn parse_attrs(&mut self) -> Result<Vec<(String, Option<String>)>, String> {
        let mut out = Vec::new();
        while self.eat_punct('#') {
            let group = match self.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g,
                other => return Err(format!("expected [...] after #, got {other:?}")),
            };
            let mut inner = Walker::new(group.stream());
            if inner.eat_ident("serde") {
                let args = match inner.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g,
                    other => return Err(format!("expected (...) after serde, got {other:?}")),
                };
                let mut aw = Walker::new(args.stream());
                loop {
                    let key = match aw.next() {
                        None => break,
                        Some(TokenTree::Ident(i)) => i.to_string(),
                        Some(other) => return Err(format!("bad serde attr token {other}")),
                    };
                    let value = if aw.eat_punct('=') {
                        match aw.next() {
                            Some(TokenTree::Literal(l)) => Some(strip_str_literal(&l.to_string())?),
                            other => return Err(format!("bad serde attr value {other:?}")),
                        }
                    } else {
                        None
                    };
                    out.push((key, value));
                    if !aw.eat_punct(',') {
                        break;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Skip a `pub` / `pub(crate)` visibility prefix.
    fn skip_vis(&mut self) {
        if self.eat_ident("pub") {
            if let Some(TokenTree::Group(g)) = self.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    self.pos += 1;
                }
            }
        }
    }

    /// Skip tokens until a top-level comma (exclusive); groups are atomic
    /// so nested commas are invisible. Returns the skipped tokens.
    fn take_until_comma(&mut self) -> Vec<TokenTree> {
        let mut taken = Vec::new();
        while let Some(t) = self.peek() {
            if let TokenTree::Punct(p) = t {
                if p.as_char() == ',' {
                    break;
                }
            }
            taken.push(self.next().unwrap());
        }
        taken
    }
}

fn strip_str_literal(lit: &str) -> Result<String, String> {
    let l = lit.trim();
    if l.len() >= 2 && l.starts_with('"') && l.ends_with('"') {
        Ok(l[1..l.len() - 1].to_string())
    } else {
        Err(format!("expected string literal, got {lit}"))
    }
}

fn container_attrs(entries: &[(String, Option<String>)]) -> Result<ContainerAttrs, String> {
    let mut attrs = ContainerAttrs::default();
    for (key, value) in entries {
        match (key.as_str(), value) {
            ("tag", Some(v)) => attrs.tag = Some(v.clone()),
            ("rename_all", Some(v)) if v == "snake_case" => attrs.rename_all_snake = true,
            ("rename_all", Some(v)) => return Err(format!("unsupported rename_all = {v:?}")),
            ("deny_unknown_fields", None) => attrs.deny_unknown = true,
            (k, _) => return Err(format!("unsupported container serde attr `{k}`")),
        }
    }
    Ok(attrs)
}

fn field_from_attrs(
    name: String,
    entries: &[(String, Option<String>)],
    ty: &[TokenTree],
) -> Result<Field, String> {
    let mut default = None;
    let mut aliases = Vec::new();
    for (key, value) in entries {
        match (key.as_str(), value) {
            ("default", None) => default = Some(DefaultKind::Std),
            ("default", Some(path)) => default = Some(DefaultKind::Path(path.clone())),
            ("alias", Some(alias)) => aliases.push(alias.clone()),
            (k, _) => return Err(format!("unsupported field serde attr `{k}` on `{name}`")),
        }
    }
    let is_option = matches!(ty.first(), Some(TokenTree::Ident(i)) if i.to_string() == "Option");
    Ok(Field {
        name,
        default,
        is_option,
        aliases,
    })
}

/// Parse `name: Type` fields from a brace group's stream.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut w = Walker::new(stream);
    let mut fields = Vec::new();
    loop {
        let attrs = w.parse_attrs()?;
        w.skip_vis();
        let name = match w.next() {
            None => break,
            Some(TokenTree::Ident(i)) => i.to_string(),
            Some(other) => return Err(format!("expected field name, got {other}")),
        };
        if !w.eat_punct(':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        let ty = w.take_until_comma();
        fields.push(field_from_attrs(name, &attrs, &ty)?);
        if !w.eat_punct(',') {
            break;
        }
    }
    Ok(fields)
}

/// Count tuple-struct / tuple-variant fields in a paren group's stream.
fn count_tuple_fields(stream: TokenStream) -> Result<usize, String> {
    let mut w = Walker::new(stream);
    let mut count = 0;
    loop {
        let _ = w.parse_attrs()?;
        w.skip_vis();
        let ty = w.take_until_comma();
        if !ty.is_empty() {
            count += 1;
        }
        if !w.eat_punct(',') {
            break;
        }
    }
    Ok(count)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut w = Walker::new(stream);
    let mut variants = Vec::new();
    loop {
        let _attrs = w.parse_attrs()?;
        let name = match w.next() {
            None => break,
            Some(TokenTree::Ident(i)) => i.to_string(),
            Some(other) => return Err(format!("expected variant name, got {other}")),
        };
        let fields = match w.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let g = g.stream();
                w.pos += 1;
                VariantFields::Named(parse_named_fields(g)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let g = g.stream();
                w.pos += 1;
                VariantFields::Tuple(count_tuple_fields(g)?)
            }
            _ => VariantFields::Unit,
        };
        if w.eat_punct('=') {
            // Explicit discriminant: skip its expression.
            let _ = w.take_until_comma();
        }
        variants.push(Variant { name, fields });
        if !w.eat_punct(',') {
            break;
        }
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut w = Walker::new(input);
    let attr_entries = w.parse_attrs()?;
    let attrs = container_attrs(&attr_entries)?;
    w.skip_vis();
    let is_enum = if w.eat_ident("struct") {
        false
    } else if w.eat_ident("enum") {
        true
    } else {
        return Err("expected `struct` or `enum` (unions are unsupported)".into());
    };
    let name = match w.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    if let Some(TokenTree::Punct(p)) = w.peek() {
        if p.as_char() == '<' {
            return Err(format!(
                "generic type `{name}` is unsupported by the serde shim"
            ));
        }
    }
    let kind = if is_enum {
        match w.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::Enum(parse_variants(g.stream())?)
            }
            other => return Err(format!("expected enum body, got {other:?}")),
        }
    } else {
        match w.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::NamedStruct(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                ItemKind::TupleStruct(count_tuple_fields(g.stream())?)
            }
            other => return Err(format!("expected struct body, got {other:?}")),
        }
    };
    Ok(Item { name, attrs, kind })
}

// --- codegen --------------------------------------------------------------

/// serde's `rename_all = "snake_case"` rule.
fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, ch) in name.chars().enumerate() {
        if ch.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(ch.to_ascii_lowercase());
        } else {
            out.push(ch);
        }
    }
    out
}

fn variant_wire_name(attrs: &ContainerAttrs, variant: &str) -> String {
    if attrs.rename_all_snake {
        snake_case(variant)
    } else {
        variant.to_string()
    }
}

fn missing_field_expr(field: &Field) -> String {
    match &field.default {
        Some(DefaultKind::Std) => "::core::default::Default::default()".into(),
        Some(DefaultKind::Path(p)) => format!("{p}()"),
        None if field.is_option => "::core::option::Option::None".into(),
        None => format!(
            "return ::core::result::Result::Err(::serde::Error(::std::format!(\
             \"missing field `{}`\")))",
            field.name
        ),
    }
}

/// `Ok(Path { f: ..., ... })` construction body from a map expression.
fn named_fields_construct(path: &str, fields: &[Field], map_expr: &str) -> String {
    let mut out = format!("::core::result::Result::Ok({path} {{\n");
    for f in fields {
        let lookup: String = f
            .aliases
            .iter()
            .map(|a| format!(".or_else(|| {map_expr}.get(\"{a}\"))"))
            .collect();
        out.push_str(&format!(
            "    {name}: match {map_expr}.get(\"{name}\"){lookup} {{\n\
                     ::core::option::Option::Some(__v) => ::serde::Deserialize::from_value(__v)?,\n\
                     ::core::option::Option::None => {missing},\n\
                 }},\n",
            name = f.name,
            missing = missing_field_expr(f),
        ));
    }
    out.push_str("})");
    out
}

/// Unknown-key guard over `entries` given the allowed key list.
fn deny_unknown_guard(fields: &[Field], extra_allowed: &[&str]) -> String {
    let mut allowed: Vec<String> = fields
        .iter()
        .flat_map(|f| std::iter::once(&f.name).chain(&f.aliases))
        .map(|k| format!("\"{k}\""))
        .collect();
    allowed.extend(extra_allowed.iter().map(|k| format!("\"{k}\"")));
    let arms = if allowed.is_empty() {
        "\"\"".to_string()
    } else {
        allowed.join(" | ")
    };
    format!(
        "for (__k, _) in __entries.iter() {{\n\
            match __k.as_str() {{\n\
                {arms} => {{}}\n\
                __other => return ::core::result::Result::Err(::serde::Error(\
                    ::std::format!(\"unknown field `{{}}`\", __other))),\n\
            }}\n\
        }}\n"
    )
}

fn gen_serialize(item: &Item) -> Result<String, String> {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => {
            let mut entries = String::new();
            for f in fields {
                entries.push_str(&format!(
                    "(::std::string::String::from(\"{0}\"), \
                     ::serde::Serialize::to_value(&self.{0})), ",
                    f.name
                ));
            }
            format!("::serde::Value::Map(::std::vec![{entries}])")
        }
        ItemKind::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        ItemKind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
        }
        ItemKind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let wire = variant_wire_name(&item.attrs, &v.name);
                match (&v.fields, &item.attrs.tag) {
                    (VariantFields::Unit, None) => {
                        arms.push_str(&format!(
                            "{name}::{v} => ::serde::Value::Str(\
                             ::std::string::String::from(\"{wire}\")),\n",
                            v = v.name
                        ));
                    }
                    (VariantFields::Unit, Some(tag)) => {
                        arms.push_str(&format!(
                            "{name}::{v} => ::serde::Value::Map(::std::vec![\
                             (::std::string::String::from(\"{tag}\"), \
                              ::serde::Value::Str(::std::string::String::from(\"{wire}\")))]),\n",
                            v = v.name
                        ));
                    }
                    (VariantFields::Named(fields), tag) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let field_entries: String = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from(\"{0}\"), \
                                     ::serde::Serialize::to_value({0})), ",
                                    f.name
                                )
                            })
                            .collect();
                        let inner = match tag {
                            Some(tag) => format!(
                                "::serde::Value::Map(::std::vec![\
                                 (::std::string::String::from(\"{tag}\"), \
                                  ::serde::Value::Str(::std::string::String::from(\"{wire}\"))), \
                                 {field_entries}])"
                            ),
                            None => format!(
                                "::serde::Value::Map(::std::vec![\
                                 (::std::string::String::from(\"{wire}\"), \
                                  ::serde::Value::Map(::std::vec![{field_entries}]))])"
                            ),
                        };
                        arms.push_str(&format!(
                            "{name}::{v} {{ {binds} }} => {inner},\n",
                            v = v.name,
                            binds = binds.join(", ")
                        ));
                    }
                    (VariantFields::Tuple(_), Some(_)) => {
                        return Err(format!(
                            "tuple variant `{}` cannot be internally tagged",
                            v.name
                        ));
                    }
                    (VariantFields::Tuple(n), None) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let payload = if *n == 1 {
                            "::serde::Serialize::to_value(__f0)".to_string()
                        } else {
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{v}({binds}) => ::serde::Value::Map(::std::vec![\
                             (::std::string::String::from(\"{wire}\"), {payload})]),\n",
                            v = v.name,
                            binds = binds.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    Ok(format!(
        "impl ::serde::Serialize for {name} {{\n\
            fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
        }}\n"
    ))
}

fn gen_deserialize(item: &Item) -> Result<String, String> {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => {
            let guard = if item.attrs.deny_unknown {
                deny_unknown_guard(fields, &[])
            } else {
                String::new()
            };
            let construct = named_fields_construct(name, fields, "__value");
            format!(
                "match __value {{\n\
                    ::serde::Value::Map(__entries) => {{\n\
                        let _ = &__entries;\n{guard}{construct}\n}}\n\
                    __other => ::core::result::Result::Err(::serde::Error(::std::format!(\
                        \"expected map for struct {name}, found {{}}\", __other.kind()))),\n\
                }}"
            )
        }
        ItemKind::TupleStruct(1) => {
            format!(
                "::core::result::Result::Ok({name}(::serde::Deserialize::from_value(__value)?))"
            )
        }
        ItemKind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                .collect();
            format!(
                "match __value {{\n\
                    ::serde::Value::Seq(__items) if __items.len() == {n} => \
                        ::core::result::Result::Ok({name}({items})),\n\
                    __other => ::core::result::Result::Err(::serde::Error(::std::format!(\
                        \"expected sequence of {n} for {name}, found {{}}\", __other.kind()))),\n\
                }}",
                items = items.join(", ")
            )
        }
        ItemKind::Enum(variants) => match &item.attrs.tag {
            Some(tag) => {
                let mut arms = String::new();
                for v in variants {
                    let wire = variant_wire_name(&item.attrs, &v.name);
                    match &v.fields {
                        VariantFields::Unit => {
                            let guard = if item.attrs.deny_unknown {
                                deny_unknown_guard(&[], &[tag])
                            } else {
                                String::new()
                            };
                            arms.push_str(&format!(
                                "\"{wire}\" => {{ {guard}\
                                 ::core::result::Result::Ok({name}::{v}) }}\n",
                                v = v.name
                            ));
                        }
                        VariantFields::Named(fields) => {
                            let guard = if item.attrs.deny_unknown {
                                deny_unknown_guard(fields, &[tag])
                            } else {
                                String::new()
                            };
                            let construct = named_fields_construct(
                                &format!("{name}::{}", v.name),
                                fields,
                                "__value",
                            );
                            arms.push_str(&format!("\"{wire}\" => {{ {guard}{construct} }}\n"));
                        }
                        VariantFields::Tuple(_) => {
                            return Err(format!(
                                "tuple variant `{}` cannot be internally tagged",
                                v.name
                            ));
                        }
                    }
                }
                format!(
                    "match __value {{\n\
                        ::serde::Value::Map(__entries) => {{\n\
                            let _ = &__entries;\n\
                            let __tag = match __value.get(\"{tag}\") {{\n\
                                ::core::option::Option::Some(::serde::Value::Str(__s)) => \
                                    __s.as_str(),\n\
                                _ => return ::core::result::Result::Err(::serde::Error(\
                                    ::std::format!(\"missing `{tag}` tag for enum {name}\"))),\n\
                            }};\n\
                            match __tag {{\n{arms}\
                                __other => ::core::result::Result::Err(::serde::Error(\
                                    ::std::format!(\"unknown {name} variant `{{}}`\", __other))),\n\
                            }}\n\
                        }}\n\
                        __other => ::core::result::Result::Err(::serde::Error(::std::format!(\
                            \"expected map for enum {name}, found {{}}\", __other.kind()))),\n\
                    }}"
                )
            }
            None => {
                let mut str_arms = String::new();
                let mut map_arms = String::new();
                for v in variants {
                    let wire = variant_wire_name(&item.attrs, &v.name);
                    match &v.fields {
                        VariantFields::Unit => {
                            str_arms.push_str(&format!(
                                "\"{wire}\" => ::core::result::Result::Ok({name}::{v}),\n",
                                v = v.name
                            ));
                        }
                        VariantFields::Named(fields) => {
                            let construct = named_fields_construct(
                                &format!("{name}::{}", v.name),
                                fields,
                                "__payload",
                            );
                            map_arms.push_str(&format!("\"{wire}\" => {{ {construct} }}\n"));
                        }
                        VariantFields::Tuple(n) => {
                            let construct = if *n == 1 {
                                format!(
                                    "::core::result::Result::Ok({name}::{v}(\
                                     ::serde::Deserialize::from_value(__payload)?))",
                                    v = v.name
                                )
                            } else {
                                let items: Vec<String> = (0..*n)
                                    .map(|i| {
                                        format!("::serde::Deserialize::from_value(&__items[{i}])?")
                                    })
                                    .collect();
                                format!(
                                    "match __payload {{\n\
                                        ::serde::Value::Seq(__items) if __items.len() == {n} => \
                                            ::core::result::Result::Ok({name}::{v}({items})),\n\
                                        _ => ::core::result::Result::Err(::serde::Error(\
                                            ::std::format!(\"bad payload for {name}::{v}\"))),\n\
                                    }}",
                                    v = v.name,
                                    items = items.join(", ")
                                )
                            };
                            map_arms.push_str(&format!("\"{wire}\" => {{ {construct} }}\n"));
                        }
                    }
                }
                format!(
                    "match __value {{\n\
                        ::serde::Value::Str(__s) => match __s.as_str() {{\n{str_arms}\
                            __other => ::core::result::Result::Err(::serde::Error(\
                                ::std::format!(\"unknown {name} variant `{{}}`\", __other))),\n\
                        }},\n\
                        ::serde::Value::Map(__entries) if __entries.len() == 1 => {{\n\
                            let (__variant, __payload) = &__entries[0];\n\
                            match __variant.as_str() {{\n{map_arms}\
                                __other => ::core::result::Result::Err(::serde::Error(\
                                    ::std::format!(\"unknown {name} variant `{{}}`\", __other))),\n\
                            }}\n\
                        }}\n\
                        __other => ::core::result::Result::Err(::serde::Error(::std::format!(\
                            \"expected string or map for enum {name}, found {{}}\", \
                            __other.kind()))),\n\
                    }}"
                )
            }
        },
    };
    Ok(format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn from_value(__value: &::serde::Value) \
                -> ::core::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
        }}\n"
    ))
}

fn expand(input: TokenStream, gen: fn(&Item) -> Result<String, String>) -> TokenStream {
    let rendered = parse_item(input).and_then(|item| gen(&item));
    match rendered {
        Ok(code) => code.parse().unwrap_or_else(|e| {
            format!("::core::compile_error!(\"serde shim codegen error: {e}\");")
                .parse()
                .unwrap()
        }),
        Err(msg) => {
            let escaped = msg.replace('\\', "\\\\").replace('"', "\\\"");
            format!("::core::compile_error!(\"serde shim: {escaped}\");")
                .parse()
                .unwrap()
        }
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

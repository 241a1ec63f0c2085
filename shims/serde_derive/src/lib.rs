//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! vendored mini-serde.
//!
//! The build environment has neither `syn` nor `quote`, so this macro
//! parses the item's `proc_macro::TokenStream` directly (token trees make
//! this tractable: all bracketed content arrives pre-grouped, only
//! generic angle brackets need depth counting) and emits the impl as a
//! formatted string parsed back into a `TokenStream`.
//!
//! Supported shapes — exactly what the workspace uses:
//! * named-field structs (with optional `#[serde(with = "module")]`,
//!   `#[serde(default)]`, and/or
//!   `#[serde(skip_serializing_if = "path")]` on fields),
//! * tuple structs (single field = transparent newtype, like serde),
//! * enums with unit, newtype, tuple, and struct variants (externally
//!   tagged representation),
//! * plain type generics (`Event<I, O, M>`), bounded with
//!   `Serialize` / `DeserializeOwned` per parameter.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Input {
    name: String,
    /// Type parameter names, in declaration order.
    generics: Vec<String>,
    data: Data,
}

#[derive(Debug)]
enum Data {
    Struct(Fields),
    Enum(Vec<Variant>),
}

#[derive(Debug)]
enum Fields {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

#[derive(Debug, Default)]
struct FieldAttrs {
    /// Module path from `#[serde(with = "path")]`, if present.
    with: Option<String>,
    /// Whether `#[serde(default)]` was given: a missing field
    /// deserializes as `Default::default()` instead of erroring.
    default: bool,
    /// Predicate path from `#[serde(skip_serializing_if = "path")]`:
    /// the field's map entry is omitted when `path(&field)` is true
    /// (keeping serialized output byte-stable when a new field holds
    /// its default value).
    skip_serializing_if: Option<String>,
}

#[derive(Debug)]
struct Field {
    name: String,
    attrs: FieldAttrs,
}

#[derive(Debug)]
struct Variant {
    name: String,
    fields: Fields,
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    render_serialize(&parsed)
        .parse()
        .expect("serde_derive generated invalid Serialize impl")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    render_deserialize(&parsed)
        .parse()
        .expect("serde_derive generated invalid Deserialize impl")
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor {
            tokens: stream.into_iter().collect(),
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

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Consumes one attribute (`#[...]` or `#![...]`) if present,
    /// returning any serde field options it carried
    /// (`#[serde(with = "…")]`, `#[serde(default)]`).
    fn eat_attribute(&mut self) -> Option<FieldAttrs> {
        match self.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {}
            _ => return None,
        }
        self.next(); // '#'
        if let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() == '!' {
                self.next();
            }
        }
        let group = match self.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g,
            other => panic!("serde_derive: malformed attribute near {other:?}"),
        };
        Some(parse_serde_attrs(group.stream()))
    }

    /// Skips any attributes, merging the serde options they carry (a
    /// field has at most one `with`; `default` may ride along).
    fn eat_attributes(&mut self) -> FieldAttrs {
        let mut attrs = FieldAttrs::default();
        while let Some(a) = self.eat_attribute() {
            if a.with.is_some() {
                attrs.with = a.with;
            }
            if a.skip_serializing_if.is_some() {
                attrs.skip_serializing_if = a.skip_serializing_if;
            }
            attrs.default |= a.default;
        }
        attrs
    }

    /// Skips `pub`, `pub(crate)`, etc.
    fn eat_visibility(&mut self) {
        if let Some(TokenTree::Ident(id)) = self.peek() {
            if id.to_string() == "pub" {
                self.next();
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.next();
                    }
                }
            }
        }
    }

    fn expect_ident(&mut self, what: &str) -> String {
        match self.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive: expected {what}, got {other:?}"),
        }
    }

    /// Parses `<...>` generics if present, returning type parameter names.
    fn eat_generics(&mut self) -> Vec<String> {
        match self.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {}
            _ => return Vec::new(),
        }
        self.next(); // '<'
        let mut params = Vec::new();
        let mut depth = 1usize;
        let mut expecting_param = true;
        while depth > 0 {
            match self.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => depth += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => depth -= 1,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 1 => {
                    expecting_param = true;
                }
                Some(TokenTree::Punct(p)) if p.as_char() == '\'' => {
                    // Lifetime parameter: skip its name, don't record.
                    self.next();
                    expecting_param = false;
                }
                Some(TokenTree::Ident(id)) => {
                    let s = id.to_string();
                    if expecting_param && depth == 1 {
                        if s == "const" {
                            panic!("serde_derive: const generics are not supported");
                        }
                        params.push(s);
                    }
                    expecting_param = false;
                }
                Some(_) => expecting_param = false,
                None => panic!("serde_derive: unterminated generics"),
            }
        }
        params
    }
}

fn parse_serde_attrs(attr_body: TokenStream) -> FieldAttrs {
    let mut attrs = FieldAttrs::default();
    let mut it = attr_body.into_iter();
    match it.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return attrs,
    }
    let group = match it.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g,
        _ => return attrs,
    };
    // Comma-separated options: `with = "module"` and/or `default`.
    let inner: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut i = 0;
    while i < inner.len() {
        match &inner[i..] {
            [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(lit), ..]
                if key.to_string() == "with" && eq.as_char() == '=' =>
            {
                let raw = lit.to_string();
                attrs.with = Some(raw.trim_matches('"').to_string());
                i += 3;
            }
            [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(lit), ..]
                if key.to_string() == "skip_serializing_if" && eq.as_char() == '=' =>
            {
                let raw = lit.to_string();
                attrs.skip_serializing_if = Some(raw.trim_matches('"').to_string());
                i += 3;
            }
            [TokenTree::Ident(key), ..] if key.to_string() == "default" => {
                attrs.default = true;
                i += 1;
            }
            [TokenTree::Punct(p), ..] if p.as_char() == ',' => i += 1,
            _ => panic!(
                "serde_derive: only #[serde(with = \"module\")], #[serde(default)], and \
                 #[serde(skip_serializing_if = \"path\")] are supported, got #[serde({})]",
                group.stream()
            ),
        }
    }
    attrs
}

fn parse_input(input: TokenStream) -> Input {
    let mut cur = Cursor::new(input);
    cur.eat_attributes();
    cur.eat_visibility();
    let kind = cur.expect_ident("`struct` or `enum`");
    let name = cur.expect_ident("type name");
    let generics = cur.eat_generics();
    match (kind.as_str(), cur.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => Input {
            name,
            generics,
            data: Data::Struct(Fields::Named(parse_named_fields(g.stream()))),
        },
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => Input {
            name,
            generics,
            data: Data::Struct(Fields::Tuple(count_tuple_fields(g.stream()))),
        },
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Input {
            name,
            generics,
            data: Data::Struct(Fields::Unit),
        },
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => Input {
            name,
            generics,
            data: Data::Enum(parse_variants(g.stream())),
        },
        (k, other) => panic!("serde_derive: unsupported item shape ({k} followed by {other:?}); `where` clauses are not supported"),
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut cur = Cursor::new(stream);
    let mut fields = Vec::new();
    while !cur.at_end() {
        let attrs = cur.eat_attributes();
        cur.eat_visibility();
        let name = cur.expect_ident("field name");
        match cur.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive: expected `:` after field {name}, got {other:?}"),
        }
        skip_type(&mut cur);
        fields.push(Field { name, attrs });
    }
    fields
}

/// Consumes type tokens up to (and including) the next top-level comma.
/// Inside a token stream only `<`/`>` need depth tracking; bracketed
/// groups are single trees.
fn skip_type(cur: &mut Cursor) {
    let mut depth = 0usize;
    while let Some(tok) = cur.peek() {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth = depth.saturating_sub(1),
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                cur.next();
                return;
            }
            _ => {}
        }
        cur.next();
    }
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut cur = Cursor::new(stream);
    let mut count = 0usize;
    while !cur.at_end() {
        cur.eat_attributes();
        cur.eat_visibility();
        if cur.at_end() {
            break;
        }
        skip_type(&mut cur);
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut cur = Cursor::new(stream);
    let mut variants = Vec::new();
    while !cur.at_end() {
        cur.eat_attributes();
        let name = cur.expect_ident("variant name");
        let fields = match cur.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let named = parse_named_fields(g.stream());
                cur.next();
                Fields::Named(named)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                cur.next();
                Fields::Tuple(n)
            }
            _ => Fields::Unit,
        };
        // Trailing comma between variants.
        if let Some(TokenTree::Punct(p)) = cur.peek() {
            if p.as_char() == ',' {
                cur.next();
            } else {
                panic!("serde_derive: explicit enum discriminants are not supported");
            }
        }
        variants.push(Variant { name, fields });
    }
    variants
}

// ---------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------

fn impl_header(input: &Input, trait_bound: &str, trait_for: &str, extra_lifetime: &str) -> String {
    let mut params = String::new();
    let mut args = String::new();
    if !extra_lifetime.is_empty() {
        params.push_str(extra_lifetime);
    }
    for g in &input.generics {
        if !params.is_empty() {
            params.push_str(", ");
        }
        params.push_str(&format!("{g}: {trait_bound}"));
        if !args.is_empty() {
            args.push_str(", ");
        }
        args.push_str(g);
    }
    let params = if params.is_empty() {
        String::new()
    } else {
        format!("<{params}>")
    };
    let args = if args.is_empty() {
        String::new()
    } else {
        format!("<{args}>")
    };
    format!(
        "#[automatically_derived] impl{params} {trait_for} for {name}{args}",
        name = input.name
    )
}

fn render_serialize(input: &Input) -> String {
    let header = impl_header(input, "::serde::Serialize", "::serde::Serialize", "");
    let to_value_err = "map_err(<__S::Error as ::serde::ser::Error>::custom)?";
    let body = match &input.data {
        Data::Struct(Fields::Named(fields)) => {
            let mut pushes = String::new();
            for f in fields {
                let name = &f.name;
                let expr = match &f.attrs.with {
                    None => format!("::serde::to_value(&self.{name}).{to_value_err}"),
                    Some(path) => format!(
                        "{path}::serialize(&self.{name}, ::serde::value::ValueSerializer).{to_value_err}"
                    ),
                };
                let push = format!("__entries.push((\"{name}\".to_string(), {expr}));\n");
                match &f.attrs.skip_serializing_if {
                    None => pushes.push_str(&push),
                    Some(pred) => pushes.push_str(&format!(
                        "if !{pred}(&self.{name}) {{ {push} }}\n"
                    )),
                }
            }
            format!(
                "let mut __entries: Vec<(String, ::serde::Value)> = Vec::new();\n\
                 {pushes}\
                 __serializer.serialize_value(::serde::Value::Map(__entries))"
            )
        }
        Data::Struct(Fields::Tuple(1)) => format!(
            "let __v = ::serde::to_value(&self.0).{to_value_err};\n\
             __serializer.serialize_value(__v)"
        ),
        Data::Struct(Fields::Tuple(n)) => {
            let mut items = String::new();
            for i in 0..*n {
                items.push_str(&format!("::serde::to_value(&self.{i}).{to_value_err}, "));
            }
            format!(
                "__serializer.serialize_value(::serde::Value::Seq(vec![{items}]))"
            )
        }
        Data::Struct(Fields::Unit) => {
            "__serializer.serialize_value(::serde::Value::Null)".to_string()
        }
        Data::Enum(variants) => {
            let name = &input.name;
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{vname} => __serializer.serialize_value(::serde::Value::String(\"{vname}\".to_string())),\n"
                    )),
                    Fields::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vname}(__f0) => {{\n\
                           let __v = ::serde::to_value(__f0).{to_value_err};\n\
                           __serializer.serialize_value(::serde::Value::Map(vec![(\"{vname}\".to_string(), __v)]))\n\
                         }}\n"
                    )),
                    Fields::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let mut items = String::new();
                        for b in &binders {
                            items.push_str(&format!("::serde::to_value({b}).{to_value_err}, "));
                        }
                        arms.push_str(&format!(
                            "{name}::{vname}({binds}) => {{\n\
                               let __v = ::serde::Value::Seq(vec![{items}]);\n\
                               __serializer.serialize_value(::serde::Value::Map(vec![(\"{vname}\".to_string(), __v)]))\n\
                             }}\n",
                            binds = binders.join(", ")
                        ));
                    }
                    Fields::Named(fields) => {
                        let binders: Vec<&String> = fields.iter().map(|f| &f.name).collect();
                        let mut pushes = String::new();
                        for f in fields {
                            let fname = &f.name;
                            let expr = match &f.attrs.with {
                                None => format!("::serde::to_value({fname}).{to_value_err}"),
                                Some(path) => format!(
                                    "{path}::serialize({fname}, ::serde::value::ValueSerializer).{to_value_err}"
                                ),
                            };
                            let push = format!(
                                "__inner.push((\"{fname}\".to_string(), {expr}));\n"
                            );
                            match &f.attrs.skip_serializing_if {
                                None => pushes.push_str(&push),
                                Some(pred) => pushes.push_str(&format!(
                                    "if !{pred}({fname}) {{ {push} }}\n"
                                )),
                            }
                        }
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {binds} }} => {{\n\
                               let mut __inner: Vec<(String, ::serde::Value)> = Vec::new();\n\
                               {pushes}\
                               __serializer.serialize_value(::serde::Value::Map(vec![(\"{vname}\".to_string(), ::serde::Value::Map(__inner))]))\n\
                             }}\n",
                            binds = binders
                                .iter()
                                .map(|b| b.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "{header} {{\n\
           fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S) -> ::std::result::Result<__S::Ok, __S::Error> {{\n\
             {body}\n\
           }}\n\
         }}"
    )
}

fn render_deserialize(input: &Input) -> String {
    let header = impl_header(
        input,
        "::serde::de::DeserializeOwned",
        "::serde::Deserialize<'de>",
        "'de",
    );
    let custom = "<__D::Error as ::serde::de::Error>::custom";
    let name = &input.name;
    let body = match &input.data {
        Data::Struct(Fields::Named(fields)) => {
            let extract = render_named_extraction(name, fields, custom, &format!("{name} {{"));
            format!(
                "match __value {{\n\
                   ::serde::Value::Map(mut __entries) => {{\n{extract}\n}}\n\
                   __other => Err({custom}(format!(\"expected map for struct {name}, got {{}}\", __other.kind()))),\n\
                 }}"
            )
        }
        Data::Struct(Fields::Tuple(1)) => format!(
            "Ok({name}(::serde::from_value(__value).map_err({custom})?))"
        ),
        Data::Struct(Fields::Tuple(n)) => format!(
            "match __value {{\n\
               ::serde::Value::Seq(__items) if __items.len() == {n} => {{\n\
                 let mut __it = __items.into_iter();\n\
                 Ok({name}({fields}))\n\
               }}\n\
               __other => Err({custom}(format!(\"expected {n}-element sequence for {name}, got {{}}\", __other.kind()))),\n\
             }}",
            fields = (0..*n)
                .map(|_| format!(
                    "::serde::from_value(__it.next().expect(\"length checked\")).map_err({custom})?"
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Data::Struct(Fields::Unit) => format!("{{ let _ = __value; Ok({name}) }}"),
        Data::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    Fields::Unit => {
                        unit_arms.push_str(&format!("\"{vname}\" => Ok({name}::{vname}),\n"));
                        // A unit variant may also arrive as {"Name": null}.
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => {{ let _ = __inner; Ok({name}::{vname}) }}\n"
                        ));
                    }
                    Fields::Tuple(1) => tagged_arms.push_str(&format!(
                        "\"{vname}\" => Ok({name}::{vname}(::serde::from_value(__inner).map_err({custom})?)),\n"
                    )),
                    Fields::Tuple(n) => tagged_arms.push_str(&format!(
                        "\"{vname}\" => match __inner {{\n\
                           ::serde::Value::Seq(__items) if __items.len() == {n} => {{\n\
                             let mut __it = __items.into_iter();\n\
                             Ok({name}::{vname}({fields}))\n\
                           }}\n\
                           __other => Err({custom}(format!(\"expected {n}-element sequence for variant {vname}, got {{}}\", __other.kind()))),\n\
                         }},\n",
                        fields = (0..*n)
                            .map(|_| format!(
                                "::serde::from_value(__it.next().expect(\"length checked\")).map_err({custom})?"
                            ))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )),
                    Fields::Named(fields) => {
                        let extract = render_named_extraction(
                            &format!("variant {vname}"),
                            fields,
                            custom,
                            &format!("{name}::{vname} {{"),
                        );
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => match __inner {{\n\
                               ::serde::Value::Map(mut __entries) => {{\n{extract}\n}}\n\
                               __other => Err({custom}(format!(\"expected map for variant {vname}, got {{}}\", __other.kind()))),\n\
                             }},\n"
                        ));
                    }
                }
            }
            format!(
                "match __value {{\n\
                   ::serde::Value::String(__s) => match __s.as_str() {{\n\
                     {unit_arms}\
                     __other => Err({custom}(format!(\"unknown variant {{__other:?}} for enum {name}\"))),\n\
                   }},\n\
                   ::serde::Value::Map(__entries) if __entries.len() == 1 => {{\n\
                     let (__tag, __inner) = __entries.into_iter().next().expect(\"length checked\");\n\
                     match __tag.as_str() {{\n\
                       {tagged_arms}\
                       __other => Err({custom}(format!(\"unknown variant {{__other:?}} for enum {name}\"))),\n\
                     }}\n\
                   }}\n\
                   __other => Err({custom}(format!(\"expected string or single-entry map for enum {name}, got {{}}\", __other.kind()))),\n\
                 }}"
            )
        }
    };
    format!(
        "{header} {{\n\
           fn deserialize<__D: ::serde::Deserializer<'de>>(__deserializer: __D) -> ::std::result::Result<Self, __D::Error> {{\n\
             let __value = __deserializer.take_value()?;\n\
             {body}\n\
           }}\n\
         }}"
    )
}

/// Emits statements that pull each named field out of `__entries`
/// (a `Vec<(String, Value)>`) and finish with `Ok(<ctor> field0, ... })`.
fn render_named_extraction(
    what: &str,
    fields: &[Field],
    custom: &str,
    ctor_open: &str,
) -> String {
    let mut out = String::new();
    let mut ctor_fields = String::new();
    for f in fields {
        let fname = &f.name;
        let parse = match &f.attrs.with {
            None => format!("::serde::from_value(__raw).map_err({custom})?"),
            Some(path) => format!(
                "{path}::deserialize(::serde::value::ValueDeserializer(__raw)).map_err({custom})?"
            ),
        };
        if f.attrs.default {
            // `#[serde(default)]`: a missing field takes Default::default().
            out.push_str(&format!(
                "let __field_{fname} = match __entries.iter().position(|(k, _)| k == \"{fname}\") {{\n\
                   Some(__pos) => {{ let __raw = __entries.remove(__pos).1; {parse} }}\n\
                   None => ::std::default::Default::default(),\n\
                 }};\n"
            ));
        } else {
            out.push_str(&format!(
                "let __pos = __entries.iter().position(|(k, _)| k == \"{fname}\")\
                   .ok_or_else(|| {custom}(format!(\"missing field {fname} in {what}\")))?;\n\
                 let __raw = __entries.remove(__pos).1;\n\
                 let __field_{fname} = {parse};\n"
            ));
        }
        ctor_fields.push_str(&format!("{fname}: __field_{fname}, "));
    }
    // Extraction removed the first entry of every field, so a leftover
    // entry with a field's name repeats it: refuse it, as serde_json does.
    // (Leftovers with unknown names stay tolerated.)
    let names: Vec<String> = fields.iter().map(|f| format!("\"{}\"", f.name)).collect();
    out.push_str(&format!(
        "if let Some((__k, _)) = __entries.iter().find(|(__k, _)| [{}].contains(&__k.as_str())) {{\n\
           return Err({custom}(format!(\"duplicate field `{{__k}}` in {what}\")));\n\
         }}\n",
        names.join(", ")
    ));
    out.push_str(&format!("Ok({ctor_open} {ctor_fields} }})"));
    out
}

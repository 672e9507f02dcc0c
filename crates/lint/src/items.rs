//! Item-level segmentation over the masked source + token tree.
//!
//! This is the layer that lets rules reason *structurally* instead of
//! line-by-line: every `use` / `fn` / `struct` / `enum` / `impl` / `mod` /
//! `trait` / `const` / `static` / `type` / `macro_rules!` item is recorded
//! with its byte span, its attributes (so `#[cfg(test)]` and
//! `#[derive(...)]` are item properties, not text matches), its body span,
//! and its path inside the file (`tests::helper`, `FleetShard::advance_to`).
//!
//! The segmenter is deliberately forgiving — it recurses into `mod`,
//! `impl` and `trait` bodies (where nested items live), treats anything it
//! cannot classify as an opaque token to skip, and never recurses into
//! `fn` bodies or `macro_rules!` definitions (the former contain
//! expressions, the latter contain token soup that only *expands* to
//! code). Consumers ask three questions: *which item encloses this byte?*
//! ([`ItemIndex::item_at`]), *is this byte test-only code?*
//! ([`ItemIndex::in_cfg_test`]), and *is this byte inside a `macro_rules!`
//! definition body?* ([`ItemIndex::in_macro_def`]).

use crate::lexer::Scanned;
use crate::ttree::TokenTree;

/// What kind of item a segment is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `use path::to::thing;`
    Use,
    /// `extern crate name;`
    ExternCrate,
    /// `fn name(..) { .. }` (or a bodyless trait method).
    Fn,
    /// `struct Name { .. }` / tuple / unit struct.
    Struct,
    /// `enum Name { .. }`
    Enum,
    /// `union Name { .. }`
    Union,
    /// `impl [Trait for] Type { .. }` — the name is the *type*.
    Impl,
    /// `mod name;` or `mod name { .. }`
    Mod,
    /// `trait Name { .. }`
    Trait,
    /// `macro_rules! name { .. }`
    MacroDef,
    /// `const NAME: T = ..;`
    Const,
    /// `static NAME: T = ..;`
    Static,
    /// `type Name = ..;`
    TypeAlias,
    /// Anything else (macro invocation at item level, stray tokens).
    Other,
}

/// One segmented item.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Declared name (`advance_to`, `Checkpoint`; impl items carry the
    /// self-type's last path segment; `use` items carry the first path
    /// segment — the crate the edge points at).
    pub name: String,
    /// `::`-joined path within the file, including this item's own name
    /// (`tests::roundtrip`, `FleetShard::advance_to`).
    pub path: String,
    /// Byte span `[start, end)` covering attributes through body/`;`.
    pub span: (usize, usize),
    /// Byte offsets of the body's `{`/`(`/`[` and its closer, if any.
    pub body: Option<(usize, usize)>,
    /// Byte spans of the item's outer attributes.
    pub attrs: Vec<(usize, usize)>,
    /// `true` if this item (or an enclosing one) is `#[cfg(test)]`-gated.
    pub cfg_test: bool,
    /// Idents named inside `#[derive(...)]` — including derives nested in
    /// `#[cfg_attr(..., derive(...))]`.
    pub derives: Vec<String>,
    /// Item nesting depth (file level is 0).
    pub depth: usize,
}

/// The segmented items of one file.
#[derive(Debug, Clone, Default)]
pub struct ItemIndex {
    /// All items, parents before their children.
    pub items: Vec<Item>,
}

impl ItemIndex {
    /// The innermost item whose span contains `offset`.
    #[must_use]
    pub fn item_at(&self, offset: usize) -> Option<&Item> {
        self.items
            .iter()
            .filter(|it| it.span.0 <= offset && offset < it.span.1)
            .max_by_key(|it| (it.depth, std::cmp::Reverse(it.span.1 - it.span.0)))
    }

    /// The `::`-joined path of the innermost *named* item at `offset`.
    #[must_use]
    pub fn path_at(&self, offset: usize) -> Option<&str> {
        self.item_at(offset).filter(|it| !it.path.is_empty()).map(|it| it.path.as_str())
    }

    /// Is `offset` inside a `#[cfg(test)]`-gated item (directly or via an
    /// enclosing module)?
    #[must_use]
    pub fn in_cfg_test(&self, offset: usize) -> bool {
        self.item_at(offset).is_some_and(|it| it.cfg_test)
    }

    /// Is `offset` inside a `macro_rules!` *definition* body? (Pattern
    /// rules skip those: the tokens only become code where the macro is
    /// invoked, which is where findings belong.)
    #[must_use]
    pub fn in_macro_def(&self, offset: usize) -> bool {
        self.items.iter().any(|it| {
            it.kind == ItemKind::MacroDef && it.body.is_some_and(|(o, c)| o < offset && offset < c)
        })
    }
}

/// Does an attribute's masked text gate the item on `cfg(test)`?
fn attr_is_cfg_test(attr_text: &str) -> bool {
    let squashed: String = attr_text.chars().filter(|c| !c.is_whitespace()).collect();
    squashed.contains("cfg(test") || squashed.contains("cfg(all(test")
}

/// Idents inside any `derive(...)` group of an attribute's masked text.
fn attr_derives(attr_text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = attr_text.as_bytes();
    let mut search = 0;
    while let Some(rel) = attr_text[search..].find("derive") {
        let at = search + rel;
        search = at + "derive".len();
        let boundary_ok =
            at == 0 || !bytes[at - 1].is_ascii_alphanumeric() && bytes[at - 1] != b'_';
        if !boundary_ok {
            continue;
        }
        let mut i = search;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'(' {
            continue;
        }
        let mut depth = 0usize;
        let mut word = String::new();
        while i < bytes.len() {
            match bytes[i] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                b if b.is_ascii_alphanumeric() || b == b'_' => word.push(b as char),
                _ => {
                    if !word.is_empty() {
                        out.push(std::mem::take(&mut word));
                    }
                }
            }
            i += 1;
        }
        if !word.is_empty() {
            out.push(word);
        }
        search = i;
    }
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    tree: &'a TokenTree,
    i: usize,
    end: usize,
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.end && self.bytes[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        (self.i < self.end).then(|| self.bytes[self.i])
    }

    /// The identifier starting exactly at the cursor, without consuming.
    fn at_word(&self) -> Option<&str> {
        let b = self.peek()?;
        if !(b.is_ascii_alphabetic() || b == b'_') {
            return None;
        }
        let mut j = self.i;
        while j < self.end && (self.bytes[j].is_ascii_alphanumeric() || self.bytes[j] == b'_') {
            j += 1;
        }
        // Masked bytes are either original ASCII-compatible UTF-8 or
        // spaces; an ident run is pure ASCII.
        std::str::from_utf8(&self.bytes[self.i..j]).ok()
    }

    fn read_word(&mut self) -> Option<String> {
        let w = self.at_word()?.to_string();
        self.i += w.len();
        Some(w)
    }

    /// If the cursor is on an opening delimiter, jump past its close;
    /// otherwise advance one byte. Always makes progress.
    fn bump(&mut self) {
        if let Some(close) = self.tree.close_of(self.i) {
            self.i = (close + 1).min(self.end);
        } else {
            self.i += 1;
        }
    }

    /// Skip a `<...>` generic group (cursor on `<`). Paren/bracket groups
    /// inside jump via the tree; `->` return arrows don't close angles.
    fn skip_angles(&mut self) {
        debug_assert_eq!(self.peek(), Some(b'<'));
        let mut depth = 0usize;
        while self.i < self.end {
            match self.bytes[self.i] {
                b'(' | b'[' => {
                    self.bump();
                    continue;
                }
                b'<' => depth += 1,
                b'>' => {
                    if self.i > 0 && self.bytes[self.i - 1] == b'-' {
                        // `->` inside a bound: not an angle closer.
                    } else {
                        depth -= 1;
                        if depth == 0 {
                            self.i += 1;
                            return;
                        }
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Advance to just past the next `;` at this depth (groups jumped);
    /// stops early at `end`.
    fn skip_past_semi(&mut self) {
        while self.i < self.end {
            match self.bytes[self.i] {
                b';' => {
                    self.i += 1;
                    return;
                }
                b'{' | b'(' | b'[' => self.bump(),
                _ => self.i += 1,
            }
        }
    }

    /// Advance until a body `{` (returning its offset) or past a `;`
    /// (returning `None`), jumping paren/bracket groups on the way.
    fn find_body_or_semi(&mut self) -> Option<usize> {
        while self.i < self.end {
            match self.bytes[self.i] {
                b'{' => return Some(self.i),
                b';' => {
                    self.i += 1;
                    return None;
                }
                b'(' | b'[' => self.bump(),
                b'<' => self.skip_angles(),
                _ => self.i += 1,
            }
        }
        None
    }
}

/// Segment `scanned` into items using its token `tree`.
#[must_use]
pub fn segment(scanned: &Scanned, tree: &TokenTree) -> ItemIndex {
    let mut index = ItemIndex::default();
    let masked = scanned.masked.as_bytes();
    parse_block(masked, tree, 0, masked.len(), "", false, 0, &mut index);
    index
}

#[allow(clippy::too_many_arguments)] // private recursion plumbing
fn parse_block(
    bytes: &[u8],
    tree: &TokenTree,
    start: usize,
    end: usize,
    prefix: &str,
    inherited_cfg_test: bool,
    depth: usize,
    out: &mut ItemIndex,
) {
    let mut cur = Cursor { bytes, tree, i: start, end };
    loop {
        cur.skip_ws();
        if cur.i >= cur.end {
            break;
        }

        // Outer (and stray inner) attributes.
        let mut attrs: Vec<(usize, usize)> = Vec::new();
        loop {
            cur.skip_ws();
            if cur.peek() != Some(b'#') {
                break;
            }
            let attr_start = cur.i;
            let mut j = cur.i + 1;
            if j < cur.end && bytes[j] == b'!' {
                j += 1;
            }
            if j >= cur.end || bytes[j] != b'[' {
                cur.i += 1; // stray `#`
                break;
            }
            let close = tree.close_of(j).unwrap_or(cur.end);
            attrs.push((attr_start, (close + 1).min(cur.end)));
            cur.i = (close + 1).min(cur.end);
        }
        cur.skip_ws();
        if cur.i >= cur.end {
            break;
        }
        let item_start = attrs.first().map_or(cur.i, |a| a.0);

        let attr_text =
            |span: &(usize, usize)| std::str::from_utf8(&bytes[span.0..span.1]).unwrap_or("");
        let cfg_test = inherited_cfg_test || attrs.iter().any(|a| attr_is_cfg_test(attr_text(a)));
        let derives: Vec<String> = attrs.iter().flat_map(|a| attr_derives(attr_text(a))).collect();

        // Modifiers, then the item keyword.
        let mut keyword: Option<String> = None;
        loop {
            cur.skip_ws();
            let Some(w) = cur.at_word() else { break };
            match w {
                "pub" => {
                    cur.read_word();
                    cur.skip_ws();
                    if cur.peek() == Some(b'(') {
                        cur.bump(); // pub(crate), pub(in path)
                    }
                }
                "default" | "unsafe" | "async" => {
                    cur.read_word();
                }
                "const" => {
                    cur.read_word();
                    cur.skip_ws();
                    if cur.at_word() != Some("fn") {
                        keyword = Some("const".to_string());
                        break;
                    }
                }
                "extern" => {
                    cur.read_word();
                    cur.skip_ws();
                    if cur.peek() == Some(b'"') {
                        // ABI string: delimiters survive masking.
                        cur.i += 1;
                        while cur.peek().is_some_and(|b| b != b'"') {
                            cur.i += 1;
                        }
                        cur.i = (cur.i + 1).min(cur.end);
                    } else if cur.at_word() == Some("crate") {
                        keyword = Some("extern-crate".to_string());
                        break;
                    }
                }
                _ => {
                    keyword = Some(cur.read_word().expect("at_word was Some"));
                    break;
                }
            }
        }

        let Some(kw) = keyword else {
            // Not an item start (stray token / group): skip it and carry on.
            cur.bump();
            continue;
        };

        let push = |out: &mut ItemIndex,
                    kind: ItemKind,
                    name: String,
                    span_end: usize,
                    body: Option<(usize, usize)>| {
            let path = match (prefix.is_empty(), name.is_empty()) {
                (_, true) => prefix.to_string(),
                (true, false) => name.clone(),
                (false, false) => format!("{prefix}::{name}"),
            };
            out.items.push(Item {
                kind,
                name,
                path,
                span: (item_start, span_end),
                body,
                attrs: attrs.clone(),
                cfg_test,
                derives: derives.clone(),
                depth,
            });
        };

        match kw.as_str() {
            "use" => {
                cur.skip_ws();
                while cur.peek() == Some(b':') {
                    cur.i += 1; // leading `::`
                }
                let name = cur.at_word().unwrap_or("").to_string();
                cur.skip_past_semi();
                push(out, ItemKind::Use, name, cur.i, None);
            }
            "extern-crate" => {
                cur.read_word(); // `crate`
                cur.skip_ws();
                let name = cur.at_word().unwrap_or("").to_string();
                cur.skip_past_semi();
                push(out, ItemKind::ExternCrate, name, cur.i, None);
            }
            "mod" => {
                cur.skip_ws();
                let name = cur.read_word().unwrap_or_default();
                match cur.find_body_or_semi() {
                    Some(open) => {
                        let close = tree.close_of(open).unwrap_or(cur.end);
                        let child_prefix = if prefix.is_empty() {
                            name.clone()
                        } else {
                            format!("{prefix}::{name}")
                        };
                        push(out, ItemKind::Mod, name, (close + 1).min(end), Some((open, close)));
                        parse_block(
                            bytes,
                            tree,
                            open + 1,
                            close,
                            &child_prefix,
                            cfg_test,
                            depth + 1,
                            out,
                        );
                        cur.i = (close + 1).min(end);
                    }
                    None => push(out, ItemKind::Mod, name, cur.i, None),
                }
            }
            "fn" => {
                cur.skip_ws();
                let name = cur.read_word().unwrap_or_default();
                match cur.find_body_or_semi() {
                    Some(open) => {
                        let close = tree.close_of(open).unwrap_or(cur.end);
                        cur.i = (close + 1).min(end);
                        push(out, ItemKind::Fn, name, cur.i, Some((open, close)));
                    }
                    None => push(out, ItemKind::Fn, name, cur.i, None),
                }
            }
            "struct" | "enum" | "union" => {
                let kind = match kw.as_str() {
                    "struct" => ItemKind::Struct,
                    "enum" => ItemKind::Enum,
                    _ => ItemKind::Union,
                };
                cur.skip_ws();
                let name = cur.read_word().unwrap_or_default();
                // Tuple structs: the `(` group is the body and a `;` ends
                // the item; braced bodies end it directly.
                let mut body = None;
                while cur.i < cur.end {
                    match cur.peek() {
                        Some(b'{') => {
                            let open = cur.i;
                            let close = tree.close_of(open).unwrap_or(cur.end);
                            body = Some((open, close));
                            cur.i = (close + 1).min(end);
                            break;
                        }
                        Some(b'(') => {
                            let open = cur.i;
                            let close = tree.close_of(open).unwrap_or(cur.end);
                            body = Some((open, close));
                            cur.i = (close + 1).min(end);
                            cur.skip_past_semi();
                            break;
                        }
                        Some(b';') => {
                            cur.i += 1;
                            break;
                        }
                        Some(b'<') => cur.skip_angles(),
                        Some(b'[') => cur.bump(),
                        _ => cur.i += 1,
                    }
                }
                push(out, kind, name, cur.i, body);
            }
            "trait" => {
                cur.skip_ws();
                let name = cur.read_word().unwrap_or_default();
                match cur.find_body_or_semi() {
                    Some(open) => {
                        let close = tree.close_of(open).unwrap_or(cur.end);
                        let child_prefix = if prefix.is_empty() {
                            name.clone()
                        } else {
                            format!("{prefix}::{name}")
                        };
                        push(out, ItemKind::Trait, name, (close + 1).min(end), Some((open, close)));
                        parse_block(
                            bytes,
                            tree,
                            open + 1,
                            close,
                            &child_prefix,
                            cfg_test,
                            depth + 1,
                            out,
                        );
                        cur.i = (close + 1).min(end);
                    }
                    None => push(out, ItemKind::Trait, name, cur.i, None),
                }
            }
            "impl" => {
                // Header: optional generics, then `[!]Trait [for] Type`.
                cur.skip_ws();
                if cur.peek() == Some(b'<') {
                    cur.skip_angles();
                }
                let mut name = String::new();
                loop {
                    cur.skip_ws();
                    if let Some(w) = cur.at_word() {
                        if w == "for" {
                            cur.read_word();
                            name.clear(); // the self-type follows
                            continue;
                        }
                        if w == "where" {
                            // Bounds until the body.
                            while cur.i < cur.end && cur.peek() != Some(b'{') {
                                match cur.peek() {
                                    Some(b'(') | Some(b'[') => cur.bump(),
                                    Some(b'<') => cur.skip_angles(),
                                    _ => cur.i += 1,
                                }
                            }
                            break;
                        }
                        name = cur.read_word().expect("at_word was Some");
                        continue;
                    }
                    match cur.peek() {
                        Some(b'{') | None => break,
                        Some(b'<') => cur.skip_angles(),
                        Some(b'(') | Some(b'[') => {
                            cur.bump(); // impl Trait for (A, B) / [T; N]
                        }
                        Some(b';') => break, // `impl Trait for Type;` (never valid, recover)
                        _ => cur.i += 1,
                    }
                }
                if cur.peek() == Some(b'{') {
                    let open = cur.i;
                    let close = tree.close_of(open).unwrap_or(cur.end);
                    let child_prefix = match (prefix.is_empty(), name.is_empty()) {
                        (_, true) => prefix.to_string(),
                        (true, false) => name.clone(),
                        (false, false) => format!("{prefix}::{name}"),
                    };
                    push(out, ItemKind::Impl, name, (close + 1).min(end), Some((open, close)));
                    parse_block(
                        bytes,
                        tree,
                        open + 1,
                        close,
                        &child_prefix,
                        cfg_test,
                        depth + 1,
                        out,
                    );
                    cur.i = (close + 1).min(end);
                } else {
                    cur.skip_past_semi();
                    push(out, ItemKind::Impl, name, cur.i, None);
                }
            }
            "macro_rules" => {
                cur.skip_ws();
                if cur.peek() == Some(b'!') {
                    cur.i += 1;
                }
                cur.skip_ws();
                let name = cur.read_word().unwrap_or_default();
                cur.skip_ws();
                let body = match cur.peek() {
                    Some(b'{') | Some(b'(') | Some(b'[') => {
                        let open = cur.i;
                        let close = tree.close_of(open).unwrap_or(cur.end);
                        cur.i = (close + 1).min(end);
                        if bytes[open] != b'{' {
                            cur.skip_past_semi();
                        }
                        Some((open, close))
                    }
                    _ => None,
                };
                push(out, ItemKind::MacroDef, name, cur.i, body);
            }
            "const" | "static" => {
                let kind = if kw == "const" { ItemKind::Const } else { ItemKind::Static };
                cur.skip_ws();
                if cur.at_word() == Some("mut") {
                    cur.read_word();
                    cur.skip_ws();
                }
                let name = cur.at_word().unwrap_or("").to_string();
                cur.skip_past_semi();
                push(out, kind, name, cur.i, None);
            }
            "type" => {
                cur.skip_ws();
                let name = cur.at_word().unwrap_or("").to_string();
                cur.skip_past_semi();
                push(out, ItemKind::TypeAlias, name, cur.i, None);
            }
            _ => {
                // Macro invocation at item level (`name! { .. }` /
                // `name!(..);`) or something we don't model: consume one
                // "statement" and record it as opaque.
                cur.skip_ws();
                if cur.peek() == Some(b'!') {
                    cur.i += 1;
                    cur.skip_ws();
                    cur.read_word(); // optional `macro_name! ident { .. }`
                    cur.skip_ws();
                    match cur.peek() {
                        Some(b'{') => cur.bump(),
                        Some(b'(') | Some(b'[') => {
                            cur.bump();
                            cur.skip_past_semi();
                        }
                        _ => cur.skip_past_semi(),
                    }
                    push(out, ItemKind::Other, kw, cur.i, None);
                } else {
                    if let Some(open) = cur.find_body_or_semi() {
                        let close = tree.close_of(open).unwrap_or(cur.end);
                        cur.i = (close + 1).min(end);
                    }
                    push(out, ItemKind::Other, kw, cur.i, None);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn index(src: &str) -> ItemIndex {
        let scanned = scan(src);
        let tree = TokenTree::build(&scanned.masked);
        segment(&scanned, &tree)
    }

    fn find<'a>(idx: &'a ItemIndex, kind: ItemKind, name: &str) -> &'a Item {
        idx.items
            .iter()
            .find(|it| it.kind == kind && it.name == name)
            .unwrap_or_else(|| panic!("no {kind:?} named {name}: {:?}", idx.items))
    }

    #[test]
    fn top_level_items_segment() {
        let src = "use std::collections::BTreeMap;\n\
                   pub struct Point { x: u8, y: u8 }\n\
                   pub(crate) fn dist(p: Point) -> u8 { p.x + p.y }\n\
                   const LIMIT: usize = 4;\n\
                   pub type Pair = (u8, u8);\n";
        let idx = index(src);
        assert_eq!(find(&idx, ItemKind::Use, "std").kind, ItemKind::Use);
        assert!(find(&idx, ItemKind::Struct, "Point").body.is_some());
        assert_eq!(find(&idx, ItemKind::Fn, "dist").path, "dist");
        assert_eq!(find(&idx, ItemKind::Const, "LIMIT").name, "LIMIT");
        assert_eq!(find(&idx, ItemKind::TypeAlias, "Pair").name, "Pair");
    }

    #[test]
    fn nested_paths_thread_through_mods_and_impls() {
        let src = "mod outer {\n\
                       pub struct S;\n\
                       impl S {\n\
                           pub fn go(&self) {}\n\
                       }\n\
                       mod inner { fn leaf() {} }\n\
                   }\n";
        let idx = index(src);
        assert_eq!(find(&idx, ItemKind::Fn, "go").path, "outer::S::go");
        assert_eq!(find(&idx, ItemKind::Fn, "leaf").path, "outer::inner::leaf");
        let off = src.find("&self").unwrap();
        assert_eq!(idx.path_at(off), Some("outer::S::go"));
    }

    #[test]
    fn trait_impls_name_the_self_type() {
        let src = "impl<'a> Display for Checkpoint<'a> { fn fmt(&self) {} }\n\
                   impl From<u8> for Tick { fn from(v: u8) -> Tick { Tick(v) } }\n";
        let idx = index(src);
        assert_eq!(find(&idx, ItemKind::Fn, "fmt").path, "Checkpoint::fmt");
        assert_eq!(find(&idx, ItemKind::Fn, "from").path, "Tick::from");
    }

    #[test]
    fn cfg_test_gates_items_and_inherits() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() {}\n\
                       #[test]\n\
                       fn case() { helper(); }\n\
                   }\n";
        let idx = index(src);
        assert!(!find(&idx, ItemKind::Fn, "live").cfg_test);
        assert!(find(&idx, ItemKind::Fn, "helper").cfg_test);
        assert!(find(&idx, ItemKind::Fn, "case").cfg_test);
        assert!(idx.in_cfg_test(src.find("helper();").unwrap()));
        assert!(!idx.in_cfg_test(src.find("live").unwrap()));
    }

    #[test]
    fn cfg_all_test_counts_as_test_gating() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { fn f() {} }\n";
        let idx = index(src);
        assert!(find(&idx, ItemKind::Fn, "f").cfg_test);
    }

    #[test]
    fn derives_are_captured_plain_and_cfg_attr() {
        let src = "#[derive(Debug, Clone, serde::Serialize)]\nstruct A;\n\
                   #[cfg_attr(feature = \"serde\", derive(serde::Serialize, serde::Deserialize))]\n\
                   struct B;\n";
        let idx = index(src);
        let a = find(&idx, ItemKind::Struct, "A");
        assert!(a.derives.iter().any(|d| d == "Serialize"), "{:?}", a.derives);
        assert!(a.derives.iter().any(|d| d == "Debug"));
        let b = find(&idx, ItemKind::Struct, "B");
        assert!(b.derives.iter().any(|d| d == "Deserialize"), "{:?}", b.derives);
    }

    #[test]
    fn macro_rules_bodies_are_marked() {
        let src = "macro_rules! noisy {\n\
                       () => { Instant::now() };\n\
                   }\n\
                   fn after() {}\n";
        let idx = index(src);
        let m = find(&idx, ItemKind::MacroDef, "noisy");
        assert!(m.body.is_some());
        assert!(idx.in_macro_def(src.find("Instant").unwrap()));
        assert!(!idx.in_macro_def(src.find("after").unwrap()));
    }

    #[test]
    fn fn_bodies_with_where_clauses_and_generics_close_correctly() {
        let src = "fn g<T: AsRef<[u8]>>(x: T) -> Vec<Vec<(u8, u8)>>\n\
                   where T: Clone {\n\
                       let v = x.as_ref().to_vec();\n\
                       vec![v.into_iter().map(|b| (b, b)).collect()]\n\
                   }\n\
                   struct After;\n";
        let idx = index(src);
        let g = find(&idx, ItemKind::Fn, "g");
        assert!(g.body.is_some());
        assert!(idx.items.iter().any(|it| it.name == "After"));
        assert_eq!(idx.path_at(src.find("to_vec").unwrap()), Some("g"));
    }

    #[test]
    fn tuple_and_unit_structs_terminate() {
        let src = "struct U;\nstruct T(u8, Vec<u8>);\nstruct B { f: u8 }\nfn tail() {}\n";
        let idx = index(src);
        assert!(find(&idx, ItemKind::Struct, "U").body.is_none());
        assert!(find(&idx, ItemKind::Struct, "T").body.is_some());
        assert!(find(&idx, ItemKind::Struct, "B").body.is_some());
        assert!(idx.items.iter().any(|it| it.name == "tail"));
    }

    #[test]
    fn extern_crate_and_macro_invocations_segment() {
        let src = "extern crate taskdrop_pmf;\n\
                   thread_local! { static X: u8 = 0; }\n\
                   fn tail() {}\n";
        let idx = index(src);
        assert_eq!(find(&idx, ItemKind::ExternCrate, "taskdrop_pmf").name, "taskdrop_pmf");
        assert!(idx.items.iter().any(|it| it.name == "tail"));
    }

    #[test]
    fn unbalanced_input_still_terminates() {
        let idx = index("fn broken( { struct X;");
        assert!(!idx.items.is_empty());
    }
}

//! Word tokenization and n-gram expansion.
//!
//! The paper's classifier uses scikit-learn's `TfidfVectorizer` with default
//! parameters, whose token pattern is `(?u)\b\w\w+\b`: maximal runs of word
//! characters (alphanumerics plus underscore) of length at least two.
//! [`Tokenizer`] reproduces that behaviour without a regex engine.
//!
//! There is one definition of a word: the streaming [`words`] iterator.
//! The TF-IDF inference path runs it over text lowercased into a
//! reusable buffer ([`lowercase_into`]), and [`Tokenizer::tokenize`]
//! collects the same tokens into owned strings for fitting.

/// Configuration for [`Tokenizer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenizerConfig {
    /// Lowercase the input before tokenizing (sklearn default: `true`).
    pub lowercase: bool,
    /// Minimum token length in characters (sklearn default: `2`).
    pub min_token_len: usize,
    /// Inclusive n-gram range `(lo, hi)` over words (sklearn default `(1,1)`).
    pub ngram_range: (usize, usize),
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        Self {
            lowercase: true,
            min_token_len: 2,
            ngram_range: (1, 1),
        }
    }
}

/// A deterministic word tokenizer matching the scikit-learn default token
/// pattern `\w\w+` with optional word n-gram expansion.
#[derive(Debug, Clone, Default)]
pub struct Tokenizer {
    config: TokenizerConfig,
}

impl Tokenizer {
    /// Create a tokenizer with the given configuration.
    pub fn new(config: TokenizerConfig) -> Self {
        Self { config }
    }

    /// Create a tokenizer matching scikit-learn `TfidfVectorizer` defaults.
    pub fn sklearn_default() -> Self {
        Self::new(TokenizerConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &TokenizerConfig {
        &self.config
    }

    /// Tokenize `text` into owned tokens, including n-gram expansion.
    ///
    /// Word characters are Unicode alphanumerics plus `_`; every maximal run
    /// of length `>= min_token_len` becomes a token. N-grams of words are
    /// joined with a single space, matching sklearn's convention. These are
    /// the tokens the TF-IDF inference path sees, collected into owned
    /// strings.
    ///
    /// ```
    /// let t = dox_textkit::Tokenizer::sklearn_default();
    /// assert_eq!(t.tokenize("Dox'd: John_Doe a I"), vec!["dox", "john_doe"]);
    /// ```
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_token(text, &mut TokenScratch::default(), |tok| {
            out.push(tok.to_owned());
        });
        out
    }

    /// Call `emit` with every token of `text`, in [`Tokenizer::tokenize`]
    /// order, without allocating once `scratch` has warmed up: the
    /// lowercased text and joined n-grams live in `scratch`, and each
    /// token is a borrowed slice of them (or of `text`).
    pub(crate) fn for_each_token(
        &self,
        text: &str,
        scratch: &mut TokenScratch,
        mut emit: impl FnMut(&str),
    ) {
        let TokenScratch {
            lowered,
            spans,
            gram,
        } = scratch;
        let text = if self.config.lowercase {
            lowercase_into(text, lowered);
            lowered.as_str()
        } else {
            text
        };
        let min_len = self.config.min_token_len;
        let (lo, hi) = self.config.ngram_range;
        if (lo, hi) == (1, 1) {
            words(text, min_len).for_each(emit);
            return;
        }
        spans.clear();
        let mut it = words(text, min_len);
        while let Some(span) = it.next_span() {
            spans.push(span);
        }
        for n in lo..=hi {
            if n == 0 || n > spans.len() {
                continue;
            }
            for window in spans.windows(n) {
                gram.clear();
                for (k, &(start, end)) in window.iter().enumerate() {
                    if k > 0 {
                        gram.push(' ');
                    }
                    gram.push_str(&text[start..end]);
                }
                emit(gram);
            }
        }
    }
}

/// Reusable buffers for [`Tokenizer::for_each_token`]: the lowercased
/// text, the word spans of an n-gram pass and the n-gram being joined.
#[derive(Debug, Default)]
pub(crate) struct TokenScratch {
    lowered: String,
    spans: Vec<(usize, usize)>,
    gram: String,
}

/// Lowercase `text` into `buf`, replacing its contents.
///
/// ASCII input is copied and lowercased in place, which allocates nothing
/// once `buf` is large enough. Anything else goes through
/// [`str::to_lowercase`], so context-sensitive Unicode casing (final
/// sigma, `İ` → `i̇`) stays exactly what a plain `to_lowercase` gives.
pub fn lowercase_into(text: &str, buf: &mut String) {
    buf.clear();
    if text.is_ascii() {
        buf.push_str(text);
        buf.make_ascii_lowercase();
    } else {
        buf.push_str(&text.to_lowercase());
    }
}

/// The maximal word-character runs of `text` that are at least `min_len`
/// characters long, in order: the `\w\w+` rule for `min_len == 2`.
///
/// ```
/// let w: Vec<&str> = dox_textkit::tokenize::words("a bc, d_e f9!", 2).collect();
/// assert_eq!(w, ["bc", "d_e", "f9"]);
/// ```
pub fn words(text: &str, min_len: usize) -> Words<'_> {
    Words {
        text,
        pos: 0,
        min_len,
        ascii: text.is_ascii(),
    }
}

/// Streaming word iterator returned by [`words`]. Word characters are
/// Unicode alphanumerics plus `_`. ASCII text — all of the synthetic
/// stream — is scanned as bytes against a lookup table; other text is
/// decoded char by char, with ASCII bytes still classified directly.
#[derive(Debug, Clone)]
pub struct Words<'a> {
    text: &'a str,
    pos: usize,
    min_len: usize,
    ascii: bool,
}

/// `WORD_BYTE[b]`: ASCII byte `b` is alphanumeric or `_`.
static WORD_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 128 {
        table[b] = (b as u8).is_ascii_alphanumeric() || b == b'_' as usize;
        b += 1;
    }
    table
};

impl Words<'_> {
    /// Byte range of the next word, or `None` at the end of the text.
    fn next_span(&mut self) -> Option<(usize, usize)> {
        if self.ascii {
            ascii_span(self.text.as_bytes(), &mut self.pos, self.min_len)
        } else {
            self.next_unicode_span()
        }
    }

    fn next_unicode_span(&mut self) -> Option<(usize, usize)> {
        let len = self.text.len();
        while self.pos < len {
            let (is_word, width) = char_class(self.text, self.pos);
            if !is_word {
                self.pos += width;
                continue;
            }
            let start = self.pos;
            let mut end = len;
            let mut chars = 0usize;
            while self.pos < len {
                let (is_word, width) = char_class(self.text, self.pos);
                self.pos += width;
                if !is_word {
                    // The separator that ends the run cannot start the next.
                    end = self.pos - width;
                    break;
                }
                chars += 1;
            }
            if chars >= self.min_len {
                return Some((start, end));
            }
        }
        None
    }
}

impl<'a> Iterator for Words<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let (start, end) = self.next_span()?;
        Some(&self.text[start..end])
    }

    /// The same scan with the cursor in a local, which the ASCII loop
    /// keeps in a register; `for_each` (the tokenizer's path) uses it.
    fn fold<B, F: FnMut(B, &'a str) -> B>(self, init: B, mut f: F) -> B {
        let mut acc = init;
        if self.ascii {
            let (text, mut pos) = (self.text, self.pos);
            while let Some((start, end)) = ascii_span(text.as_bytes(), &mut pos, self.min_len) {
                acc = f(acc, &text[start..end]);
            }
        } else {
            for word in self {
                acc = f(acc, word);
            }
        }
        acc
    }
}

/// The next ASCII word at or after `*pos`, advancing `*pos` past it.
#[inline(always)]
fn ascii_span(bytes: &[u8], pos: &mut usize, min_len: usize) -> Option<(usize, usize)> {
    loop {
        let rest = bytes.get(*pos..)?;
        let start = *pos + rest.iter().position(|&b| WORD_BYTE[usize::from(b)])?;
        let end = bytes[start..]
            .iter()
            .position(|&b| !WORD_BYTE[usize::from(b)])
            .map_or(bytes.len(), |n| start + n);
        *pos = end;
        // One byte is one char here.
        if end - start >= min_len {
            return Some((start, end));
        }
    }
}

/// Whether the character starting at byte `pos` of `text` is a word
/// character, and its width in bytes.
#[inline]
fn char_class(text: &str, pos: usize) -> (bool, usize) {
    let byte = text.as_bytes()[pos];
    if byte.is_ascii() {
        return (WORD_BYTE[usize::from(byte)], 1);
    }
    // `pos` is always a char boundary: it only ever advances by whole chars.
    match text[pos..].chars().next() {
        Some(ch) => (ch.is_alphanumeric(), ch.len_utf8()),
        None => (false, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_sklearn_pattern() {
        let t = Tokenizer::sklearn_default();
        // single-character tokens are dropped, punctuation splits
        assert_eq!(
            t.tokenize("I am a dox-file, v2!"),
            vec!["am", "dox", "file", "v2"]
        );
    }

    #[test]
    fn underscore_is_word_char() {
        let t = Tokenizer::sklearn_default();
        assert_eq!(t.tokenize("snake_case_name"), vec!["snake_case_name"]);
    }

    #[test]
    fn lowercasing_can_be_disabled() {
        let t = Tokenizer::new(TokenizerConfig {
            lowercase: false,
            ..TokenizerConfig::default()
        });
        assert_eq!(t.tokenize("DoX DoX"), vec!["DoX", "DoX"]);
    }

    #[test]
    fn bigrams_join_with_space() {
        let t = Tokenizer::new(TokenizerConfig {
            ngram_range: (1, 2),
            ..TokenizerConfig::default()
        });
        assert_eq!(
            t.tokenize("full name here"),
            vec!["full", "name", "here", "full name", "name here"]
        );
    }

    #[test]
    fn pure_bigrams() {
        let t = Tokenizer::new(TokenizerConfig {
            ngram_range: (2, 2),
            ..TokenizerConfig::default()
        });
        assert_eq!(t.tokenize("aa bb cc"), vec!["aa bb", "bb cc"]);
    }

    #[test]
    fn ngram_longer_than_text_is_empty() {
        let t = Tokenizer::new(TokenizerConfig {
            ngram_range: (3, 3),
            ..TokenizerConfig::default()
        });
        assert!(t.tokenize("aa bb").is_empty());
    }

    #[test]
    fn unicode_words_survive() {
        let t = Tokenizer::sklearn_default();
        assert_eq!(t.tokenize("héllo wörld"), vec!["héllo", "wörld"]);
    }

    #[test]
    fn empty_input() {
        let t = Tokenizer::sklearn_default();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("!!! ... ---").is_empty());
    }

    #[test]
    fn trailing_word_is_kept() {
        let t = Tokenizer::sklearn_default();
        assert_eq!(t.tokenize("ends with word"), vec!["ends", "with", "word"]);
    }

    #[test]
    fn lowercase_into_keeps_unicode_casing_rules() {
        let mut buf = String::from("stale contents");
        lowercase_into("MiXeD ASCII", &mut buf);
        assert_eq!(buf, "mixed ascii");
        for text in ["ΟΔΥΣΣΕΥΣ", "İstanbul", "STRASSE ß", "Ab ÉCOLE"] {
            lowercase_into(text, &mut buf);
            assert_eq!(buf, text.to_lowercase(), "{text}");
        }
    }

    #[test]
    fn words_matches_the_word_rule() {
        let w: Vec<&str> = words("x yz_1 é,héllo--wörld 中文 a", 2).collect();
        assert_eq!(w, ["yz_1", "héllo", "wörld", "中文"]);
        assert_eq!(words("", 2).count(), 0);
        assert_eq!(words("a b", 1).collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    fn ascii_words_at_every_offset() {
        for pad in 60..70 {
            let text = format!("{} abcdef gh{}", "x ".repeat(pad / 2), "z".repeat(pad));
            let lead = "x ".repeat(pad / 2);
            let got: Vec<&str> = words(&text, 2).collect();
            assert_eq!(got, ["abcdef", &text[lead.len() + 8..]], "pad {pad}");
            assert_eq!(words(&text, 1).count(), pad / 2 + 2, "pad {pad}");
        }
        let whole = "w".repeat(128);
        assert_eq!(words(&whole, 2).collect::<Vec<_>>(), [whole.as_str()]);
        assert_eq!(words(&"a".repeat(64), 65).count(), 0);
    }

    #[test]
    fn for_each_token_reuses_scratch_across_documents() {
        let t = Tokenizer::new(TokenizerConfig {
            ngram_range: (1, 2),
            ..TokenizerConfig::default()
        });
        let mut scratch = TokenScratch::default();
        for doc in ["Full NAME here", "ΣΑΣ dox", "", "one"] {
            let mut seen = Vec::new();
            t.for_each_token(doc, &mut scratch, |tok| seen.push(tok.to_owned()));
            assert_eq!(seen, t.tokenize(doc), "{doc}");
        }
    }

    #[test]
    fn min_len_respects_chars_not_bytes() {
        let t = Tokenizer::sklearn_default();
        // 'éé' is two chars, four bytes; must be kept.
        assert_eq!(t.tokenize("éé"), vec!["éé"]);
    }
}

package predicate

import "strings"

// likeMatch implements SQL LIKE: '%' matches any sequence (including empty),
// '_' matches exactly one byte, '\' escapes the next pattern byte. Matching
// is byte-wise and case-sensitive, as in most warehouse defaults.
func likeMatch(pattern, s string) bool {
	return likeMatchAt(pattern, s)
}

func likeMatchAt(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive wildcards, then try all suffixes.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeMatchAt(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		case '\\':
			if len(p) < 2 || len(s) == 0 || p[1] != s[0] {
				return false
			}
			p, s = p[2:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}

// likeMatcher compiles pattern into a specialized matcher for the common
// wildcard shapes — exact, 'lit%', '%lit', and '%lit%' — which reduce to
// equality, prefix, suffix, and substring tests over the raw bytes. Other
// shapes fall back to the general recursive matcher. Bulk scans (FillMask)
// pay the shape analysis once instead of re-walking the pattern per row.
func likeMatcher(pattern string) func(string) bool {
	if !strings.ContainsAny(pattern, "_\\") {
		switch n := strings.Count(pattern, "%"); {
		case n == 0:
			return func(s string) bool { return s == pattern }
		case n == 1 && strings.HasSuffix(pattern, "%"):
			pre := pattern[:len(pattern)-1]
			return func(s string) bool { return strings.HasPrefix(s, pre) }
		case n == 1 && strings.HasPrefix(pattern, "%"):
			suf := pattern[1:]
			return func(s string) bool { return strings.HasSuffix(s, suf) }
		case n == 2 && len(pattern) >= 2 && strings.HasPrefix(pattern, "%") && strings.HasSuffix(pattern, "%"):
			sub := pattern[1 : len(pattern)-1]
			if !strings.Contains(sub, "%") {
				return func(s string) bool { return strings.Contains(s, sub) }
			}
		}
	}
	return func(s string) bool { return likeMatch(pattern, s) }
}

// likePrefix returns the literal prefix of a LIKE pattern before the first
// wildcard, and whether the pattern is prefix-shaped enough for the prefix to
// bound matches (i.e. the prefix is non-trivial).
func likePrefix(pattern string) (string, bool) {
	var out []byte
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '%', '_':
			return string(out), true
		case '\\':
			if i+1 < len(pattern) {
				i++
				out = append(out, pattern[i])
			}
		default:
			out = append(out, pattern[i])
		}
	}
	// No wildcard at all: pattern is an exact string.
	return string(out), true
}

package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqlagg"
)

// parseAggList parses a compact aggregate list like "SUM(0),AVG(1)"
// into specs, applying levels to every spec (0 = default).
func parseAggList(s string, levels int) ([]sqlagg.AggSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty aggregate list (expected e.g. aggs=SUM(0),AVG(1))")
	}
	var specs []sqlagg.AggSpec
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		open := strings.IndexByte(item, '(')
		if open < 0 || !strings.HasSuffix(item, ")") {
			return nil, fmt.Errorf("malformed aggregate %q (expected KIND(col))", item)
		}
		kind, ok := sqlagg.KindByName(strings.ToUpper(strings.TrimSpace(item[:open])))
		if !ok {
			return nil, fmt.Errorf("unknown aggregate kind %q", item[:open])
		}
		col, err := strconv.Atoi(strings.TrimSpace(item[open+1 : len(item)-1]))
		if err != nil || col < 0 {
			return nil, fmt.Errorf("bad column index in %q", item)
		}
		specs = append(specs, sqlagg.AggSpec{Kind: kind, Levels: levels, Col: col})
	}
	return specs, nil
}

// atoiDefault parses s as an int, returning def for empty or
// unparsable input (validation happens in the serving layer).
func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return v
}

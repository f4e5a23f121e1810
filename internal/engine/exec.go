package engine

import (
	"fmt"
	"strings"

	"sdb/internal/sqlparser"
	"sdb/internal/types"
)

// inferKinds sets column kinds from the first non-null value per column.
func inferKinds(cols []ResultColumn, rows []types.Row) {
	for c := range cols {
		for _, row := range rows {
			if !row[c].IsNull() {
				cols[c].Kind = row[c].K
				break
			}
		}
	}
}

// projection expands stars and adds the select list to the projection's
// expression set.
func (e *Engine) projection(s *sqlparser.Select, rel *relation, sb *setBuilder) ([]ResultColumn, error) {
	var cols []ResultColumn
	for _, item := range s.Items {
		if item.Star {
			for i, c := range rel.cols {
				if c.hidden {
					continue
				}
				idx := i
				cols = append(cols, ResultColumn{Name: c.name, Kind: c.kind})
				sb.addFn(func(row types.Row) (types.Value, error) {
					return row[idx], nil
				})
			}
			continue
		}
		if _, err := sb.add(item.Expr); err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(sqlparser.ColRef); ok {
				name = cr.Name
			} else {
				name = fmt.Sprintf("_col%d", len(cols))
			}
		}
		cols = append(cols, ResultColumn{Name: strings.ToLower(name)})
	}
	return cols, nil
}

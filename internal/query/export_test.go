package query

// ParseErrorCases hands TestParseErrors' table to the external test package.
var ParseErrorCases = parseErrorCases

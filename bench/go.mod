module x3/bench

go 1.24

require x3 v0.0.0

replace x3 => ../

module github.com/globalmmcs/globalmmcs/benchmark

go 1.24

require github.com/globalmmcs/globalmmcs v0.0.0

replace github.com/globalmmcs/globalmmcs => ../
